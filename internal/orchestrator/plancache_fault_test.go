package orchestrator

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"disttrain/internal/store"
)

// faultStore is a store.Disk whose Puts go through fault, which leaves
// the directory in the state a failure or crash at one point of the
// write would, and returns what the writer would have seen.
type faultStore struct {
	*store.Disk
	t     *testing.T
	dir   string
	fault func(t *testing.T, d *store.Disk, path, key string, payload []byte) error
}

func (s *faultStore) Put(key string, payload []byte) error {
	return s.fault(s.t, s.Disk, filepath.Join(s.dir, key+".entry"), key, payload)
}

// errCrash stands for a put the process never returned from.
var errCrash = errors.New("process crashed mid-put")

// truncate cuts the file at path to keep(size) bytes.
func truncate(t *testing.T, path string, keep func(size int64) int64) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, keep(info.Size())); err != nil {
		t.Fatal(err)
	}
}

// strayTemp leaves what a put that died between writing its temporary
// file and renaming it leaves: half an entry under a temporary name.
func strayTemp(t *testing.T, path string, payload []byte) {
	t.Helper()
	if err := os.WriteFile(path+".tmp-crashed", payload[:len(payload)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheStoreFaults injects a fault into the disk store's write
// at each point it can fail or crash, and holds the plan cache to
// its contract through all of them: the caller still gets the correct
// plan and a failed put counts one StoreErrs; a reopened cache reads
// the damage as a miss (a counted corrupt skip where an entry is
// damaged) or, when a complete old entry survived, as that entry; the
// re-search heals the entry so a third instance warm-hits; and only a
// crash leaves a temporary file behind.
func TestPlanCacheStoreFaults(t *testing.T) {
	spec := cacheSpec(t, 4, 32)
	ctx := context.Background()
	want, err := PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name  string
		fault func(t *testing.T, d *store.Disk, path, key string, payload []byte) error
		// fails: the writer saw an error; corrupt: a damaged entry is on
		// disk; old: a complete entry is on disk; crashed: a stray
		// temporary file is on disk.
		fails, corrupt, old, crashed bool
	}{
		{name: "ENOSPC", fails: true,
			fault: func(_ *testing.T, _ *store.Disk, path, _ string, _ []byte) error {
				return &fs.PathError{Op: "write", Path: path, Err: syscall.ENOSPC}
			}},
		{name: "short write", fails: true, corrupt: true,
			fault: func(t *testing.T, d *store.Disk, path, key string, payload []byte) error {
				if err := d.Put(key, payload); err != nil {
					return err
				}
				truncate(t, path, func(n int64) int64 { return n / 2 })
				return io.ErrShortWrite
			}},
		{name: "crash before rename", fails: true, crashed: true,
			fault: func(t *testing.T, _ *store.Disk, path, _ string, payload []byte) error {
				strayTemp(t, path, payload)
				return errCrash
			}},
		{name: "crash before rename over an old entry", fails: true, old: true, crashed: true,
			fault: func(t *testing.T, d *store.Disk, path, key string, payload []byte) error {
				if err := d.Put(key, payload); err != nil { // an earlier put of the key completed
					return err
				}
				strayTemp(t, path, payload)
				return errCrash
			}},
		{name: "crash after rename, truncated payload", corrupt: true,
			fault: func(t *testing.T, d *store.Disk, path, key string, payload []byte) error {
				err := d.Put(key, payload)
				truncate(t, path, func(n int64) int64 { return n - 7 })
				return err
			}},
		{name: "crash after rename, zero-length file", corrupt: true,
			fault: func(t *testing.T, d *store.Disk, path, key string, payload []byte) error {
				err := d.Put(key, payload)
				truncate(t, path, func(int64) int64 { return 0 })
				return err
			}},
		{name: "failed rename", fails: true,
			fault: func(t *testing.T, d *store.Disk, path, key string, payload []byte) error {
				// A real Disk.Put failure: a directory squats on the entry's path.
				if err := os.MkdirAll(filepath.Join(path, "squatter"), 0o755); err != nil {
					t.Fatal(err)
				}
				err := d.Put(key, payload)
				if err := os.RemoveAll(path); err != nil {
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
			temps, _ := filepath.Glob(filepath.Join(dir, "*.entry.tmp-*"))
			expect("temporary files left", int64(len(temps)), count(f.crashed))

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
