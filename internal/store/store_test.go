package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// backends runs a subtest against both Store implementations.
func backends(t *testing.T, run func(t *testing.T, s Store)) {
	t.Run("mem", func(t *testing.T) { run(t, NewMem()) })
	t.Run("disk", func(t *testing.T) {
		d, err := OpenDisk(filepath.Join(t.TempDir(), "cache"))
		if err != nil {
			t.Fatal(err)
		}
		run(t, d)
	})
}

func TestStoreRoundTrip(t *testing.T) {
	backends(t, func(t *testing.T, s Store) {
		if _, ok, err := s.Get("absent"); ok || err != nil {
			t.Fatalf("Get(absent) = ok=%v err=%v, want miss", ok, err)
		}
		payload := []byte(`{"v":1,"plan":"x"}`)
		if err := s.Put("k1", payload); err != nil {
			t.Fatal(err)
		}
		got, ok, err := s.Get("k1")
		if err != nil || !ok || !bytes.Equal(got, payload) {
			t.Fatalf("Get(k1) = %q ok=%v err=%v, want stored payload", got, ok, err)
		}
		// Last write wins.
		if err := s.Put("k1", []byte("second")); err != nil {
			t.Fatal(err)
		}
		got, ok, _ = s.Get("k1")
		if !ok || string(got) != "second" {
			t.Fatalf("overwrite: got %q ok=%v, want \"second\"", got, ok)
		}
		// Empty payloads are legal (the header carries the length).
		if err := s.Put("empty", nil); err != nil {
			t.Fatal(err)
		}
		got, ok, err = s.Get("empty")
		if err != nil || !ok || len(got) != 0 {
			t.Fatalf("Get(empty) = %q ok=%v err=%v, want empty payload", got, ok, err)
		}
	})
}

func TestStoreRejectsBadKeys(t *testing.T) {
	backends(t, func(t *testing.T, s Store) {
		for _, key := range []string{"", "../escape", "a/b", ".hidden", "sp ace", "nul\x00"} {
			if err := s.Put(key, []byte("x")); err == nil {
				t.Errorf("Put(%q) accepted", key)
			}
			if _, _, err := s.Get(key); err == nil {
				t.Errorf("Get(%q) accepted", key)
			}
		}
	})
}

func TestMemGetReturnsPrivateCopy(t *testing.T) {
	s := NewMem()
	if err := s.Put("k", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, _, _ := s.Get("k")
	got[0] = 'X'
	again, _, _ := s.Get("k")
	if string(again) != "abc" {
		t.Fatalf("mutating a Get result corrupted the store: %q", again)
	}
}

func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put("persisted", []byte("across restarts")); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := d2.Get("persisted")
	if err != nil || !ok || string(got) != "across restarts" {
		t.Fatalf("reopened store: got %q ok=%v err=%v", got, ok, err)
	}
}

func openDisk(t *testing.T, dir string) *Disk {
	t.Helper()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiskCorruptionPaths is the integrity-model gate: a torn,
// truncated, bit-flipped or foreign stretch of the log must read as a
// miss counted once bytes follow it, never as a payload and never as an
// error that poisons startup, and the record after it must survive.
func TestDiskCorruptionPaths(t *testing.T) {
	payload := bytes.Repeat([]byte("plan-bytes "), 100)
	victim := appendRecord("victim", payload)
	bystander := appendRecord("bystander", []byte("intact"))
	flip := func(i int) []byte { c := bytes.Clone(victim); c[i] ^= 0x40; return c }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, tc := range []struct {
		name string
		log  []byte
		// skips: CorruptSkips after a Get; healed: after the victim's
		// re-put, and on a reopen of the healed log.
		skips, healed int64
	}{
		{"truncated payload", cat(victim[:len(victim)-7], bystander), 1, 1},
		{"truncated header", cat(victim[:10], bystander), 1, 1},
		{"bit flip", cat(flip(len(victim)-2), bystander), 1, 1},
		{"lost trailer", cat(victim[:len(victim)-1], bystander), 1, 1},
		{"key bit flip", cat(flip(len(entryMagic)), bystander), 1, 1},
		{"length bit flip", cat(flip(bytes.IndexByte(victim, ' ')+len(" victim ")), bystander), 1, 1},
		{"garbage", cat([]byte("not an entry at all"), bystander), 1, 1},
		{"wrong magic", cat([]byte("DISTTRAIN-STORE/v9 "), victim[len(entryMagic):], bystander), 1, 1},
		{"empty file", nil, 0, 0},
		{"torn tail", cat(bystander, victim[:len(victim)-7]), 0, 1},
		{"damaged tail", cat(bystander, flip(len(victim)-2)), 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "entries.log"), tc.log, 0o644); err != nil {
				t.Fatal(err)
			}
			d := openDisk(t, dir)
			got, ok, err := d.Get("victim")
			if err != nil || ok {
				t.Fatalf("damaged victim: got %q ok=%v err=%v, want a plain miss", got, ok, err)
			}
			if got, ok, err := d.Get("bystander"); err != nil || ok != (tc.log != nil) || ok && string(got) != "intact" {
				t.Fatalf("bystander: got %q ok=%v err=%v, want it intact where it was written", got, ok, err)
			}
			if n := d.CorruptSkips(); n != tc.skips {
				t.Fatalf("damaged log counted %d skips, want %d", n, tc.skips)
			}
			// A re-put heals the key, here and for a reopened store.
			if err := d.Put("victim", payload); err != nil {
				t.Fatal(err)
			}
			for i, d := range []*Disk{d, openDisk(t, dir)} {
				got, ok, err := d.Get("victim")
				if err != nil || !ok || !bytes.Equal(got, payload) {
					t.Fatalf("healed victim (store %d): got %d bytes ok=%v err=%v", i, len(got), ok, err)
				}
				if n := d.CorruptSkips(); n != tc.healed {
					t.Errorf("healed log (store %d) counted %d skips, want %d", i, n, tc.healed)
				}
			}
		})
	}
}

// TestDiskIgnoresV1Entries: a directory from the one-file-per-key
// format reads as a cold cache, not as damage.
func TestDiskIgnoresV1Entries(t *testing.T) {
	dir := t.TempDir()
	v1 := "disttrain-store/v1 " + strings.Repeat("0", 64) + " 2\nok"
	if err := os.WriteFile(filepath.Join(dir, "k.entry"), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	d := openDisk(t, dir)
	if got, ok, err := d.Get("k"); ok || err != nil || d.CorruptSkips() != 0 {
		t.Fatalf("v1 entry: got %q ok=%v err=%v skips=%d, want an uncounted miss", got, ok, err, d.CorruptSkips())
	}
}

// TestDiskConcurrentWriters hammers two keys from many writers through
// two Disks over one directory while readers spin on both, under -race:
// every read observes one complete payload some writer put, N puts
// leave one file holding exactly their N records, and afterwards each
// instance reads every key's latest record in log order. Large
// payloads make torn or interleaved appends observable.
func TestDiskConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	disks := []*Disk{openDisk(t, dir), openDisk(t, dir)}
	const writers, rounds = 4, 8
	key := func(i int) string { return fmt.Sprintf("k%d", i%2) }
	records := make(map[string]string) // every record put -> its key
	payloads := make(map[string]bool)
	var size int
	for w := 0; w < writers; w++ {
		for i := 0; i < rounds; i++ {
			rec := appendRecord(key(i), writerPayload(w, i))
			records[string(rec)] = key(i)
			payloads[string(writerPayload(w, i))] = true
			size += len(rec)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	tornErr := make(chan string, 16)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(d *Disk) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				got, ok, err := d.Get(key(i))
				if err != nil {
					tornErr <- fmt.Sprintf("reader error: %v", err)
					return
				}
				if ok && !payloads[string(got)] {
					tornErr <- fmt.Sprintf("torn read: %d bytes matching no writer", len(got))
					return
				}
			}
		}(disks[r])
	}
	var werr sync.Map
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := 0; i < rounds; i++ {
				if err := disks[(w+i)%2].Put(key(i), writerPayload(w, i)); err != nil {
					werr.Store(w, err)
					return
				}
			}
		}(w)
	}
	wwg.Wait()
	close(stop)
	wg.Wait()
	select {
	case msg := <-tornErr:
		t.Fatal(msg)
	default:
	}
	werr.Range(func(k, v any) bool {
		t.Errorf("writer %v: %v", k, v)
		return true
	})

	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 1 || files[0].Name() != "entries.log" {
		t.Fatalf("%d puts left %v (%v), want one entries.log", writers*rounds, files, err)
	}
	log, err := os.ReadFile(filepath.Join(dir, "entries.log"))
	if err != nil || len(log) != size {
		t.Fatalf("log holds %d bytes (%v), want the %d bytes of %d records", len(log), err, size, writers*rounds)
	}
	// Walk the log record by record: each must be one that was put,
	// whole, and the last one of a key is its latest.
	latest := make(map[string][]byte)
	for off := 0; off < len(log); {
		at := off + bytes.IndexByte(log[off:], '\n') + 1 // the payload's offset
		end := at + len(writerPayload(0, 0)) + 1
		k, ok := records[string(log[off:end])]
		if !ok {
			t.Fatalf("offset %d holds no record that was put", off)
		}
		latest[k] = log[at : end-1]
		off = end
	}
	for i, d := range disks {
		for k, want := range latest {
			if got, ok, err := d.Get(k); err != nil || !ok || !bytes.Equal(got, want) {
				t.Errorf("store %d, key %s: ok=%v err=%v, not the latest record in log order", i, k, ok, err)
			}
		}
		if d.CorruptSkips() != 0 {
			t.Errorf("store %d: concurrent writers produced %d corrupt reads", i, d.CorruptSkips())
		}
	}
}

// writerPayload is writer w's round-i payload: 64 KB, distinct per
// (w, i).
func writerPayload(w, i int) []byte {
	return append([]byte{byte(i)}, bytes.Repeat([]byte{byte('a' + w)}, 64<<10)...)
}

// TestDiskPutFailure: a Put that cannot open the log (a directory
// squats on it) names the store and key in its error, leaves the
// squatter alone and creates nothing beside it.
func TestDiskPutFailure(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir)
	if err := os.MkdirAll(filepath.Join(dir, "entries.log", "squatter"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := d.Put("victim", []byte("payload"))
	if err == nil || !strings.HasPrefix(err.Error(), "store: put victim: ") {
		t.Fatalf("Put onto a directory: err = %v, want a \"store: put victim: \" error", err)
	}
	if files, _ := os.ReadDir(dir); len(files) != 1 || !files[0].IsDir() {
		t.Fatalf("failed Put left %v, want only the squatter", files)
	}
	if _, err := os.Stat(filepath.Join(dir, "entries.log", "squatter")); err != nil {
		t.Fatalf("failed Put disturbed the squatter: %v", err)
	}
}

// unmagic strips every record magic from b, so a payload cannot carry
// a record of its own.
func unmagic(b []byte) []byte {
	for bytes.Contains(b, []byte(entryMagic)) {
		b = bytes.ReplaceAll(b, []byte(entryMagic), nil)
	}
	return b
}

// FuzzLogScan holds the scanner to its contract, the whole of what an
// unsynced log promises: arbitrary bytes never panic it; a log of known
// puts, bit-flipped or cut anywhere, indexes only payloads that were
// put under their keys; and an intact record after garbage, or after a
// torn record, is recovered.
func FuzzLogScan(f *testing.F) {
	f.Add([]byte("not a record"), []byte(`{"v":1,"plan":"x"}`), []byte("second"), 0, byte(0x01), 7)
	f.Add(appendRecord("k", []byte("x"))[:30], []byte{}, []byte("b"), 19, byte('\n'^' '), 90)
	f.Add(bytes.Repeat([]byte(entryMagic), 3), bytes.Repeat([]byte("plan-bytes "), 100), []byte{}, 25, byte('3'^'9'), 0)
	f.Fuzz(func(t *testing.T, garbage, a, b []byte, pos int, xor byte, cut int) {
		scan(garbage, make(map[string][]byte)) // must not panic
		a, b = unmagic(a), unmagic(b)
		log := bytes.Join([][]byte{appendRecord("a", a), appendRecord("b", b), appendRecord("a", b)}, nil)
		index := make(map[string][]byte)
		if used, corrupt := scan(log, index); used != len(log) || corrupt != 0 ||
			!bytes.Equal(index["a"], b) || !bytes.Equal(index["b"], b) {
			t.Fatalf("intact log: used %d of %d, %d corrupt, index %q", used, len(log), corrupt, index)
		}
		mutated := bytes.Clone(log)
		mutated[uint(pos)%uint(len(mutated))] ^= xor
		put := map[string][][]byte{"a": {a, b}, "b": {b}}
		for _, damaged := range [][]byte{mutated, log[:uint(cut)%uint(len(log)+1)]} {
			index := make(map[string][]byte)
			scan(damaged, index)
			for k, p := range index {
				if !slices.ContainsFunc(put[k], func(q []byte) bool { return bytes.Equal(p, q) }) {
					t.Fatalf("damaged log indexed %q under %q, which was never put there", p, k)
				}
			}
		}
		last := appendRecord("z", a)
		for _, prefix := range [][]byte{garbage, log[:uint(cut)%uint(len(log))]} {
			index := make(map[string][]byte)
			buf := append(bytes.Clone(prefix), last...)
			if used, _ := scan(buf, index); used != len(buf) || !bytes.Equal(index["z"], a) {
				t.Fatalf("record after %d damaged bytes: used %d of %d, recovered %v", len(prefix), used, len(buf), bytes.Equal(index["z"], a))
			}
		}
	})
}
