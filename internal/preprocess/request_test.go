package preprocess

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// scriptConn plays a fixed byte stream to a connection handler and
// keeps what it writes back: Read hits EOF when the script runs out, so
// handle returns on its own.
type scriptConn struct {
	net.Conn // nil: the handler only reads, writes and closes
	in       *bytes.Reader
	out      bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error)  { return c.in.Read(p) }
func (c *scriptConn) Write(p []byte) (int, error) { return c.out.Write(p) }
func (c *scriptConn) Close() error                { return nil }

// totalAlloc reads the process's cumulative allocated bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// serveScript runs one connection's worth of raw bytes through a fresh
// producer's handler and returns the reply frames and the bytes the
// process allocated meanwhile.
func serveScript(t testing.TB, in []byte) (replies [][]byte, allocated uint64) {
	t.Helper()
	srv, err := NewServer(Config{Source: tinySource{}, GlobalBatch: 8, DPSize: 2, Microbatch: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := &scriptConn{in: bytes.NewReader(in)}
	before := totalAlloc()
	srv.handle(conn)
	allocated = totalAlloc() - before
	br := bufio.NewReader(&conn.out)
	for br.Buffered() > 0 || conn.out.Len() > 0 {
		body, err := readFrame(br, maxFrame)
		if err != nil {
			t.Fatalf("handler wrote a broken frame: %v", err)
		}
		replies = append(replies, body)
	}
	return replies, allocated
}

// frame prefixes body with its length.
func frame(body ...byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// removedFetch is the untenanted fetch request (opcode 0x01,
// iteration, rank) this wire no longer has.
var removedFetch = frame(append([]byte{0x01}, make([]byte, 12)...)...)

// goldenRequest is the request frame pinned in wire_v1.golden.
func goldenRequest(t testing.TB) []byte {
	t.Helper()
	golden, err := os.ReadFile("testdata/wire_v1.golden")
	if err != nil {
		t.Fatal(err)
	}
	line, _, _ := strings.Cut(strings.TrimPrefix(string(golden), "request "), "\n")
	req, err := hex.DecodeString(line)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// A request is 21 bytes; the length prefix is outside input. A client
// that claims a gigabyte and then idles must cost the producer a
// dropped connection, not a gigabyte held for as long as the client
// cares to stay.
func TestServerDropsOversizedRequestFrame(t *testing.T) {
	srv, err := NewServer(Config{Source: tinySource{}, GlobalBatch: 8, DPSize: 2, Microbatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, server := net.Pipe()
	defer client.Close()
	before := totalAlloc()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handle(server)
	}()
	if _, err := client.Write([]byte{0x3f, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		client.Close() // unblock the handler before failing
		<-done
		t.Fatal("handler kept a connection that announced a 1 GiB request")
	}
	if grew := totalAlloc() - before; grew > 1<<20 {
		t.Fatalf("handler allocated %d bytes for an announced-only frame", grew)
	}
}

// Everything that is not the one request ends the connection, with an
// opError frame when there was a frame to answer.
func TestServerRequestRejections(t *testing.T) {
	badRank := frame(opFetchTenant, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9)
	cases := []struct {
		name    string
		in      []byte
		replies int
		want    string // substring of the first opError reply
	}{
		{"removed untenanted fetch", removedFetch, 1, "unknown opcode 0x1"},
		{"short tenant fetch", frame(opFetchTenant, 0, 0, 0, 1), 1, "malformed tenant fetch"},
		{"empty frame", frame(), 0, ""},
		{"one byte over", frame(make([]byte, fetchRequestLen+1)...), 0, ""},
		{"truncated header", []byte{0, 0}, 0, ""},
		// A protocol rejection keeps the connection: the frame behind
		// it is read and answered too.
		{"bad rank", append(badRank, removedFetch...), 2, "outside DP size"},
	}
	for _, c := range cases {
		replies, _ := serveScript(t, c.in)
		if len(replies) != c.replies {
			t.Errorf("%s: %d replies %q, want %d", c.name, len(replies), replies, c.replies)
			continue
		}
		if c.replies == 0 {
			continue
		}
		var se *serverError
		if _, err := parseBatch(replies[0]); !errors.As(err, &se) || !strings.Contains(se.Msg, c.want) {
			t.Errorf("%s: first reply parsed as %v, want opError containing %q", c.name, err, c.want)
		}
	}
}

// FuzzServerRequest feeds arbitrary byte streams to the connection
// handler: it must return (never panic, never wait on a frame it will
// not accept), answer only with well-formed opBatch / opError frames,
// and allocate in proportion to the requests it was sent — never to a
// length prefix.
func FuzzServerRequest(f *testing.F) {
	valid := goldenRequest(f)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), valid...))
	f.Add(removedFetch)
	f.Add([]byte{0x3f, 0xff, 0xff, 0xff})
	f.Add(frame(opFetchTenant, 0, 0))
	f.Add(valid[:10])

	f.Fuzz(func(t *testing.T, in []byte) {
		replies, allocated := serveScript(t, in)
		// A served request builds one tiny iteration (well under 256 KiB
		// of pixel temporaries); nothing else may scale.
		requests := uint64(len(in)/(4+fetchRequestLen) + 1)
		if budget := 1<<20 + requests*(256<<10); allocated > budget {
			t.Fatalf("%d input bytes made the handler allocate %d bytes (budget %d)", len(in), allocated, budget)
		}
		if uint64(len(replies)) > requests {
			t.Fatalf("%d replies to at most %d requests", len(replies), requests)
		}
		for i, body := range replies {
			var se *serverError
			if _, err := parseBatch(body); err != nil && !errors.As(err, &se) {
				t.Fatalf("reply %d is neither opBatch nor opError: %v", i, err)
			}
		}
	})
}
