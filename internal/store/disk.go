package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
)

// entryMagic versions the on-disk entry format. Bumping it orphans old
// entries (they fail the header check and read as misses), which is the
// correct migration for a cache.
const entryMagic = "disttrain-store/v1"

// Disk is the on-disk backend: one file per key under a single
// directory, each entry a header naming the payload's SHA-256 and
// length followed by the payload bytes.
//
// Writes go through ReplaceFile, so concurrent writers are
// last-write-wins at rename granularity and a reader never observes a
// torn entry. Nothing is fsynced: power loss may leave an entry
// missing, truncated or empty, which — like a bit flip — fails the
// header check on load and reads as a miss that CorruptSkips counts.
type Disk struct {
	dir     string
	corrupt atomic.Int64
}

// OpenDisk opens (creating if needed) a directory-backed store.
func OpenDisk(dir string) (*Disk, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return &Disk{dir: dir}, nil
}

// CorruptSkips returns how many corrupt entries Get has skipped.
func (d *Disk) CorruptSkips() int64 { return d.corrupt.Load() }

func (d *Disk) path(key string) string {
	return filepath.Join(d.dir, key+".entry")
}

// Get loads and integrity-checks the entry for key. A missing file is a
// plain miss; an unreadable or corrupt entry (bad header, short
// payload, hash mismatch) counts as a corruption skip and is also a
// miss.
func (d *Disk) Get(key string) ([]byte, bool, error) {
	if err := validateKey(key); err != nil {
		return nil, false, err
	}
	raw, err := os.ReadFile(d.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: read %s: %w", key, err)
	}
	payload, ok := decodeEntry(raw)
	if !ok {
		d.corrupt.Add(1)
		return nil, false, nil
	}
	return payload, true, nil
}

// Put atomically replaces the entry for key.
func (d *Disk) Put(key string, payload []byte) error {
	if err := validateKey(key); err != nil {
		return err
	}
	err := ReplaceFile(d.path(key), func(f *os.File) error {
		_, err := f.Write(encodeEntry(payload))
		return err
	})
	if err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	return nil
}

// ReplaceFile fills a temporary file next to path through write and
// renames it over path, so readers see the old file or the new one,
// never a mix; on failure it removes the temporary file and leaves path
// alone. It syncs nothing: the file survives process exit, not
// necessarily power loss (metrics.WriteFileAtomic adds the fsyncs).
func ReplaceFile(path string, write func(*os.File) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// encodeEntry frames payload as "<magic> <sha256 hex> <len>\n<payload>".
func encodeEntry(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append(fmt.Appendf(nil, "%s %x %d\n", entryMagic, sum[:], len(payload)), payload...)
}

// decodeEntry returns the payload of an entry encodeEntry framed; ok is
// false for anything else (truncated, empty, bit-flipped, foreign).
func decodeEntry(raw []byte) (payload []byte, ok bool) {
	header, payload, found := bytes.Cut(raw, []byte{'\n'})
	if !found {
		return nil, false
	}
	fields := bytes.Fields(header)
	if len(fields) != 3 || string(fields[0]) != entryMagic {
		return nil, false
	}
	n, err := strconv.Atoi(string(fields[2]))
	if err != nil || n != len(payload) {
		return nil, false
	}
	sum := sha256.Sum256(payload)
	return payload, hex.EncodeToString(sum[:]) == string(fields[1])
}
