package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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

// TestDiskCorruptionPaths is the integrity-model gate: truncated
// entries, bit flips and garbage headers must all read as counted
// misses, never as payloads and never as errors that poison startup.
func TestDiskCorruptionPaths(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir)
	payload := bytes.Repeat([]byte("plan-bytes "), 100)
	if err := d.Put("victim", payload); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "victim.entry")
	original, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func([]byte) []byte{
		"truncated payload": func(b []byte) []byte { return b[:len(b)-7] },
		"truncated header":  func(b []byte) []byte { return b[:10] },
		"bit flip":          func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-1] ^= 0x40; return c },
		"garbage":           func([]byte) []byte { return []byte("not an entry at all") },
		"wrong magic": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c, "DISTTRAIN-STORE/v9")
			return c
		},
		"empty file": func([]byte) []byte { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			before := d.CorruptSkips()
			if err := os.WriteFile(path, mutate(original), 0o644); err != nil {
				t.Fatal(err)
			}
			got, ok, err := d.Get("victim")
			if err != nil {
				t.Fatalf("corrupt entry returned error %v, want counted miss", err)
			}
			if ok {
				t.Fatalf("corrupt entry returned payload %q", got)
			}
			if n := d.CorruptSkips() - before; n != 1 {
				t.Fatalf("corrupt read counted %d skips, want 1", n)
			}
			// A rewrite heals the slot.
			if err := d.Put("victim", payload); err != nil {
				t.Fatal(err)
			}
			got, ok, err = d.Get("victim")
			if err != nil || !ok || !bytes.Equal(got, payload) {
				t.Fatalf("healed entry: got %d bytes ok=%v err=%v", len(got), ok, err)
			}
		})
	}
	if d.CorruptSkips() != 6 {
		t.Errorf("CorruptSkips() = %d, want 6", d.CorruptSkips())
	}
}

// TestDiskConcurrentWriters hammers one key from many writers while
// readers spin, under -race: every successful read must observe exactly
// one writer's complete payload (last-write-wins, never a torn read).
// Large payloads make torn writes observable if atomicity ever breaks.
func TestDiskConcurrentWriters(t *testing.T) {
	d := openDisk(t, t.TempDir())
	const writers, rounds = 4, 8
	payloads := make(map[string]bool)
	for w := 0; w < writers; w++ {
		payloads[string(writerPayload(w))] = true
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	tornErr := make(chan string, 16)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, ok, err := d.Get("contested")
				if err != nil {
					tornErr <- fmt.Sprintf("reader error: %v", err)
					return
				}
				if ok && !payloads[string(got)] {
					tornErr <- fmt.Sprintf("torn read: %d bytes matching no writer", len(got))
					return
				}
			}
		}()
	}
	var werr sync.Map
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := 0; i < rounds; i++ {
				if err := d.Put("contested", writerPayload(w)); err != nil {
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
	got, ok, err := d.Get("contested")
	if err != nil || !ok || !payloads[string(got)] {
		t.Fatalf("final read: ok=%v err=%v payload-known=%v", ok, err, payloads[string(got)])
	}
	if d.CorruptSkips() != 0 {
		t.Errorf("concurrent writers produced %d corrupt reads", d.CorruptSkips())
	}
}

func writerPayload(w int) []byte {
	return bytes.Repeat([]byte{byte('a' + w)}, 64<<10)
}

// TestDiskPutFailure: a Put whose rename fails (a directory squats on
// the entry's path) names the store and key in its error, leaves the
// squatter alone and removes its temporary file.
func TestDiskPutFailure(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir)
	if err := os.MkdirAll(filepath.Join(dir, "victim.entry", "squatter"), 0o755); err != nil {
		t.Fatal(err)
	}
	err := d.Put("victim", []byte("payload"))
	if err == nil || !strings.HasPrefix(err.Error(), "store: put victim: ") {
		t.Fatalf("Put onto a directory: err = %v, want a \"store: put victim: \" error", err)
	}
	if temps, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(temps) != 0 {
		t.Fatalf("failed Put left temp files %v", temps)
	}
}

// FuzzDecodeEntry holds the integrity check to its contract, which is
// the whole of what an unsynced entry promises: decodeEntry never
// panics, an encoded entry decodes to its payload, and any one-byte
// mutation or truncation of an entry is rejected or decodes to the
// identical payload.
func FuzzDecodeEntry(f *testing.F) {
	f.Add([]byte(`{"v":1,"plan":"x"}`), 0, byte(0x01), 7)
	f.Add([]byte{}, 5, byte(' '), 0)
	f.Add(bytes.Repeat([]byte("plan-bytes "), 100), 19, byte('\n'^' '), 90)
	f.Fuzz(func(t *testing.T, payload []byte, pos int, xor byte, cut int) {
		decodeEntry(payload) // arbitrary bytes: must not panic
		entry := encodeEntry(payload)
		if got, ok := decodeEntry(entry); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("round trip: got %q ok=%v, want %q", got, ok, payload)
		}
		mutated := bytes.Clone(entry)
		mutated[uint(pos)%uint(len(mutated))] ^= xor
		truncated := entry[:uint(cut)%uint(len(entry)+1)]
		for name, raw := range map[string][]byte{"mutated": mutated, "truncated": truncated} {
			if got, ok := decodeEntry(raw); ok && !bytes.Equal(got, payload) {
				t.Fatalf("%s entry accepted with payload %q, want %q", name, got, payload)
			}
		}
	})
}
