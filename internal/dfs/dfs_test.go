package dfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestFSReadWrite(t *testing.T) {
	fs := New()
	data := bytes.Repeat([]byte{7}, 3_000_000)
	if err := fs.Write("a/b", data); err != nil {
		t.Fatal(err)
	}
	got, rd, err := fs.Read("a/b")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("data corrupted")
	}
	if rd <= latency || rd != ReadSeconds(float64(len(data)), 1) {
		t.Errorf("read duration %g should be the latency plus the transfer", rd)
	}
	// Reads return copies: mutating the result must not affect the store.
	got[0] = 99
	again, _, _ := fs.Read("a/b")
	if again[0] == 99 {
		t.Error("Read leaked internal storage")
	}
	if _, _, err := fs.Read("missing"); err == nil {
		t.Error("missing file read succeeded")
	}
	if err := fs.Write("", nil); err == nil {
		t.Error("empty name accepted")
	}
}

func TestFSList(t *testing.T) {
	fs := New()
	for _, n := range []string{"x/1", "x/3", "x/2", "y/1"} {
		if err := fs.Write(n, []byte("d")); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.List()
	want := []string{"x/1", "x/2", "x/3", "y/1"}
	if len(got) != 4 {
		t.Fatalf("List = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	fs := New()
	m := NewCheckpointManager(fs)
	defer m.Close()

	for step := 1; step <= 5; step++ {
		if err := m.Save(Checkpoint{Step: step, State: []byte(fmt.Sprintf("state-%d", step))}); err != nil {
			t.Fatal(err)
		}
		// Give the async writer a moment; saves may coalesce.
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.Now().Add(2 * time.Second)
	for m.Saved() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ck, _, err := m.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Step != 5 {
		t.Errorf("latest step = %d, want 5", ck.Step)
	}
	if string(ck.State) != "state-5" {
		t.Errorf("state = %q", ck.State)
	}
}

func TestCheckpointCoalescing(t *testing.T) {
	fs := New()
	m := NewCheckpointManager(fs)
	// Flood saves: the manager may coalesce to the freshest state, but
	// the last one must survive.
	for step := 1; step <= 200; step++ {
		if err := m.Save(Checkpoint{Step: step, State: []byte{byte(step)}}); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	ck, _, err := m.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Step != 200 {
		t.Errorf("latest after flood = %d, want 200", ck.Step)
	}
	if m.Saved() > 200 {
		t.Errorf("saved %d > enqueued", m.Saved())
	}
	if err := m.Save(Checkpoint{Step: 1}); err == nil {
		t.Error("save after Close accepted")
	}
	m.Close() // double close is safe
}

func TestLatestWithoutCheckpoints(t *testing.T) {
	fs := New()
	m := NewCheckpointManager(fs)
	defer m.Close()
	if _, _, err := m.Latest(); err == nil {
		t.Error("Latest on empty store succeeded")
	}
}

func TestFSConcurrentAccess(t *testing.T) {
	fs := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("c/%d", i%4)
			for j := 0; j < 50; j++ {
				if err := fs.Write(name, []byte{byte(j)}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if _, _, err := fs.Read(name); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				fs.List()
			}
		}(i)
	}
	wg.Wait()
}

func TestEncodeDecode(t *testing.T) {
	ck := Checkpoint{Step: 123456789, State: []byte("hello")}
	got, err := decode(encode(&ck))
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != ck.Step || string(got.State) != "hello" {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := decode([]byte{1, 2}); err == nil {
		t.Error("short data decoded")
	}
}
