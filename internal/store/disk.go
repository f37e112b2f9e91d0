package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// entryMagic opens every record and versions the format. Bumping it
// orphans old entries, the correct migration for a cache: v1's
// one-file-per-key *.entry files are never read (a cold cache).
const entryMagic = "disttrain-store/v2 "

// Disk is the on-disk backend: one append-only log, entries.log, whose
// records read "<entryMagic><key> <len> <sha256 of key, '\n' and
// payload>\n<payload>\n" (the last newline keeps a torn record from
// borrowing the next one's first bytes); a key's last intact record is
// its entry. Put appends a record in one write and holds no descriptor
// open; each Get, and a Put that finds bytes beside its own, first
// indexes what any writer appended since the last scan. Nothing is
// fsynced, so power loss may tear or lose the tail. A stretch that is
// not an intact record counts one CorruptSkips once bytes follow it
// (until then a writer may still be appending it), and the scan
// resumes at the next magic. Nothing is compacted: the plan
// cache appends a key again only after it read as missing or corrupt.
type Disk struct {
	log     string
	corrupt atomic.Int64
	mu      sync.Mutex
	index   map[string][]byte // key -> its last intact payload scanned or put
	scanned int64             // log bytes indexed so far
}

// OpenDisk opens (creating if needed) a directory-backed store.
func OpenDisk(dir string) (*Disk, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Disk{log: filepath.Join(dir, "entries.log"), index: make(map[string][]byte)}, nil
}

// CorruptSkips returns how many damaged stretches the scans skipped.
func (d *Disk) CorruptSkips() int64 { return d.corrupt.Load() }

// Get returns a private copy of key's entry.
func (d *Disk) Get(key string) ([]byte, bool, error) {
	if err := validateKey(key); err != nil {
		return nil, false, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.catchUp(); err != nil {
		return nil, false, fmt.Errorf("store: read %s: %w", key, err)
	}
	p, ok := d.index[key]
	return bytes.Clone(p), ok, nil
}

// Put appends key's record to the log in one write and indexes it: as
// written when the log grew by exactly the record since the last scan,
// else by a scan, which also indexes what others appended.
func (d *Disk) Put(key string, payload []byte) error {
	if err := validateKey(key); err != nil {
		return err
	}
	rec := appendRecord(key, payload)
	d.mu.Lock()
	defer d.mu.Unlock()
	f, err := os.OpenFile(d.log, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	var info fs.FileInfo
	if _, err = f.Write(rec); err == nil {
		info, err = f.Stat()
	}
	if err = errors.Join(err, f.Close()); err == nil {
		if info.Size() == d.scanned+int64(len(rec)) {
			end := len(rec) - 1 // the payload ends before the record's last newline
			d.index[key] = rec[end-len(payload) : end : end]
			d.scanned = info.Size()
			return nil
		}
		err = d.catchUp()
	}
	if err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	return nil
}

// catchUp indexes what was appended since the last scan; d.mu is held.
func (d *Disk) catchUp() error {
	info, err := os.Stat(d.log)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil || info.Size() <= d.scanned {
		return err
	}
	f, err := os.Open(d.log)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, info.Size()-d.scanned)
	if _, err := f.ReadAt(buf, d.scanned); err != nil {
		return err
	}
	used, corrupt := scan(buf, d.index)
	d.scanned += int64(used)
	d.corrupt.Add(corrupt)
	return nil
}

// appendRecord frames payload as key's record.
func appendRecord(key string, payload []byte) []byte {
	rec := fmt.Appendf(nil, "%s%s %d %x\n", entryMagic, key, len(payload), recordSum(key, payload))
	return append(append(rec, payload...), '\n')
}

// recordSum covers key and payload, so no payload checks out under
// another key.
func recordSum(key string, payload []byte) [sha256.Size]byte {
	return sha256.Sum256(append([]byte(key+"\n"), payload...))
}

// scan indexes buf's intact records into index and returns how many
// bytes it consumed and how many damaged stretches it skipped. It stops
// at damage that no magic follows, which the next scan reads again.
func scan(buf []byte, index map[string][]byte) (used int, corrupt int64) {
	for used < len(buf) {
		if key, payload, n := parseRecord(buf[used:]); n > 0 {
			index[key] = payload
			used += n
			continue
		}
		next := bytes.Index(buf[used+1:], []byte(entryMagic))
		if next < 0 {
			break
		}
		corrupt++
		used += 1 + next
	}
	return used, corrupt
}

// parseRecord returns the record at the start of b and its length n, or
// n == 0 when b does not start with an intact record.
func parseRecord(b []byte) (key string, payload []byte, n int) {
	r := bytes.NewReader(b)
	var size int
	var sum []byte
	_, err := fmt.Fscanf(r, entryMagic+"%s %d %x\n", &key, &size, &sum)
	at := len(b) - r.Len() // the payload's offset
	if err != nil || size < 0 || size >= r.Len() || b[at-1] != '\n' || b[at+size] != '\n' {
		return "", nil, 0
	}
	payload = b[at : at+size : at+size]
	if want := recordSum(key, payload); !bytes.Equal(sum, want[:]) {
		return "", nil, 0
	}
	return key, payload, at + size + 1
}
