package orchestrator

import (
	"bytes"
	"context"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"disttrain/internal/store"
)

// faultStore is a store.Disk whose Puts go through fault, which leaves
// the log in the state a failure or crash at one point of the append
// would, and returns what the writer would have seen.
type faultStore struct {
	*store.Disk
	t     *testing.T
	dir   string
	fault func(t *testing.T, d *store.Disk, log, key string, payload []byte) error
}

func (s *faultStore) Put(key string, payload []byte) error {
	return s.fault(s.t, s.Disk, filepath.Join(s.dir, "entries.log"), key, payload)
}

// errCrash stands for a put the process never returned from.
var errCrash = errors.New("process crashed mid-put")

// rewrite replaces the log at path with edit of its bytes.
func rewrite(t *testing.T, path string, edit func(log []byte) []byte) {
	t.Helper()
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(log), 0o644); err != nil {
		t.Fatal(err)
	}
}

// flip returns edit's bit flip of the byte at at(log).
func flip(at func(log []byte) int) func([]byte) []byte {
	return func(log []byte) []byte { log[at(log)] ^= 0x01; return log }
}

// TestPlanCacheStoreFaults injects a fault into the disk store's append
// at each point it can fail, crash or be damaged, and holds the plan
// cache to its contract through all of them: the caller still gets the
// correct plan and a failed put counts one StoreErrs; a reopened cache
// reads the damage as a miss (counted once a re-put follows the damaged
// record) or, when a complete old record survived, as that record; the
// re-search heals the entry so a third instance warm-hits; and the
// directory never holds anything but the log.
func TestPlanCacheStoreFaults(t *testing.T) {
	spec := cacheSpec(t, 4, 32)
	ctx := context.Background()
	want, err := PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name  string
		fault func(t *testing.T, d *store.Disk, log, key string, payload []byte) error
		// fails: the writer saw an error; corrupt: a damaged record is
		// in the log; old: a complete record of the key is in the log.
		fails, corrupt, old bool
	}{
		{name: "ENOSPC", fails: true,
			fault: func(_ *testing.T, _ *store.Disk, log, _ string, _ []byte) error {
				return &fs.PathError{Op: "write", Path: log, Err: syscall.ENOSPC}
			}},
		{name: "short write", fails: true, corrupt: true,
			fault: func(t *testing.T, d *store.Disk, log, key string, payload []byte) error {
				if err := d.Put(key, payload); err != nil {
					return err
				}
				rewrite(t, log, func(b []byte) []byte { return b[:len(b)-len(payload)/2] })
				return io.ErrShortWrite
			}},
		{name: "crash mid-append over an old record", fails: true, old: true,
			fault: func(t *testing.T, d *store.Disk, log, key string, payload []byte) error {
				if err := d.Put(key, payload); err != nil { // an earlier put of the key completed
					return err
				}
				rewrite(t, log, func(b []byte) []byte { return append(b, b[:len(b)/2]...) })
				return errCrash
			}},
		{name: "payload bit flip", corrupt: true,
			fault: func(t *testing.T, d *store.Disk, log, key string, payload []byte) error {
				err := d.Put(key, payload)
				rewrite(t, log, flip(func(b []byte) int { return len(b) - len(payload)/2 }))
				return err
			}},
		{name: "key bit flip", corrupt: true,
			fault: func(t *testing.T, d *store.Disk, log, key string, payload []byte) error {
				err := d.Put(key, payload)
				rewrite(t, log, flip(func(b []byte) int { return bytes.Index(b, []byte(key)) }))
				return err
			}},
		{name: "directory squats on the log", fails: true,
			fault: func(t *testing.T, d *store.Disk, log, key string, payload []byte) error {
				// A real Disk.Put failure: the log cannot be opened.
				if err := os.MkdirAll(filepath.Join(log, "squatter"), 0o755); err != nil {
					t.Fatal(err)
				}
				err := d.Put(key, payload)
				if err == nil || !strings.HasPrefix(err.Error(), "store: put "+key+": ") {
					t.Errorf("put onto a squatter: err = %v, want a \"store: put %s: \" error", err, key)
				}
				if err := os.RemoveAll(log); err != nil {
					t.Fatal(err)
				}
				return err
			}},
	} {
		t.Run(f.name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() *store.Disk {
				d, err := store.OpenDisk(dir)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			plan := func(st store.Store) *PlanCache {
				c := NewPersistentPlanCache(SearchOptions{}, st)
				got, err := c.Plan(ctx, spec)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("plan diverged from the direct search:\ngot  %+v\nwant %+v", got, want)
				}
				return c
			}
			expect := func(what string, got, want int64) {
				t.Helper()
				if got != want {
					t.Errorf("%s = %d, want %d", what, got, want)
				}
			}
			count := func(b bool) int64 {
				if b {
					return 1
				}
				return 0
			}

			c1 := plan(&faultStore{Disk: open(), t: t, dir: dir, fault: f.fault})
			expect("faulted put: StoreErrs", c1.StoreErrs(), count(f.fails))
			files, err := os.ReadDir(dir)
			if err != nil || len(files) > 1 || len(files) == 1 && files[0].Name() != "entries.log" {
				t.Errorf("directory holds %v (%v), want only entries.log", files, err)
			}

			d2 := open()
			c2 := plan(d2)
			expect("reopened: searches", c2.Searches(), 1-count(f.old))
			expect("reopened: warm hits", c2.WarmHits(), count(f.old))
			expect("reopened: CorruptSkips", d2.CorruptSkips(), count(f.corrupt))
			expect("reopened: StoreErrs", c2.StoreErrs(), 0)

			c3 := plan(open())
			expect("healed: searches", c3.Searches(), 0)
			expect("healed: warm hits", c3.WarmHits(), 1)
		})
	}
}
