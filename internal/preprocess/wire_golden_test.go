package preprocess

import (
	"bytes"
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"

	"disttrain/internal/data"
)

var updateGolden = flag.Bool("update", false, "rewrite the wire golden")

// tinySource keeps the golden frames short: two text tokens and one
// 16x16 image (a single patch) per sample, seven payload bytes.
type tinySource struct{}

func (tinySource) Sample(index int64) data.Sample {
	return data.Sample{Index: index, SeqLen: 3, GenImages: int(index % 2), Subsequences: []data.Subsequence{
		{Modality: data.Text, Tokens: 2},
		{Modality: data.Image, Tokens: 1, Resolution: 16},
	}}
}

// tap forwards one direction of a proxied connection, recording it.
func tap(dst io.Writer, src io.Reader, rec *bytes.Buffer, mu *sync.Mutex) {
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			mu.Lock()
			rec.Write(buf[:n])
			mu.Unlock()
			dst.Write(buf[:n]) //nolint:errcheck // the fetch fails if the peer is gone
		}
		if err != nil {
			return
		}
	}
}

// The version-1 wire, byte for byte: what a Client puts on the socket
// for one FetchTenant and what a Server answers with (two microbatches
// of two samples), recorded off a proxied loopback connection. The
// golden was taken before the untenanted opcode was removed; any change
// to framing, field order or widths must show up here as a diff.
func TestWireGolden(t *testing.T) {
	cfg := Config{Source: tinySource{}, GlobalBatch: 8, DPSize: 2, Microbatch: 2, Workers: 2}
	_, addr := startServer(t, cfg)

	proxy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	var (
		mu         sync.Mutex
		req, reply bytes.Buffer
	)
	go func() {
		down, err := proxy.Accept()
		if err != nil {
			return
		}
		defer down.Close()
		up, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer up.Close()
		go tap(up, down, &req, &mu)
		tap(down, up, &reply, &mu)
	}()

	client, err := Dial(proxy.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	rb, err := client.FetchTenant(context.Background(), 3, 2, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Microbatches) != 2 || len(rb.Microbatches[0]) != 2 || rb.Microbatches[0][0].SampleIndex != 5*8+4 {
		t.Fatalf("unexpected batch shape: %+v", rb)
	}
	// The client has parsed the whole reply, so both recordings are
	// complete.
	mu.Lock()
	got := fmt.Sprintf("request %s\nreply %s\n", hex.EncodeToString(req.Bytes()), hex.EncodeToString(reply.Bytes()))
	mu.Unlock()

	const path = "testdata/wire_v1.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("wire bytes changed:\n got %s\nwant %s", got, want)
	}
}
