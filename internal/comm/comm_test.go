package comm

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestAllReduceCost(t *testing.T) {
	c := CollectiveCost{BandwidthBps: 100e9, Latency: 1e-6}
	if got := c.AllReduce(1e9, 1); got != 0 {
		t.Errorf("single-rank all-reduce = %g, want 0", got)
	}
	// 8-rank ring: 2*(7/8) of the volume per link.
	got := c.AllReduce(1e9, 8)
	want := 2*(7.0/8)*1e9/100e9 + 14e-6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("AllReduce = %g, want %g", got, want)
	}
	// All-reduce costs twice an all-gather minus latency bookkeeping.
	ag := c.AllGather(1e9, 8)
	if got <= ag {
		t.Error("all-reduce should cost more than all-gather")
	}
}

func TestReduceScatterMatchesAllGather(t *testing.T) {
	c := CollectiveCost{BandwidthBps: 50e9, Latency: 2e-6}
	if c.ReduceScatter(123456, 4) != c.AllGather(123456, 4) {
		t.Error("ring RS and AG must cost the same")
	}
}

func TestP2P(t *testing.T) {
	c := CollectiveCost{BandwidthBps: 25e9, Latency: 5e-6}
	got := c.P2P(25e9)
	if math.Abs(got-(1+5e-6)) > 1e-9 {
		t.Errorf("P2P = %g", got)
	}
}

func TestTPOverhead(t *testing.T) {
	c := CollectiveCost{BandwidthBps: 300e9, Latency: 1e-6}
	act := 8192.0 * 8192 * 2

	if got := TPOverheadPerLayer(c, act, 1, false, 0); got != 0 {
		t.Errorf("TP=1 overhead = %g, want 0", got)
	}
	plain := TPOverheadPerLayer(c, act, 8, false, 0)
	if plain <= 0 {
		t.Fatal("TP=8 overhead must be positive")
	}
	// StepCCL overlap shrinks exposed time proportionally.
	overlapped := TPOverheadPerLayer(c, act, 8, false, 0.85)
	if math.Abs(overlapped-plain*0.15) > 1e-12 {
		t.Errorf("85%% overlap: got %g, want %g", overlapped, plain*0.15)
	}
	if got := TPOverheadPerLayer(c, act, 8, false, 2.0); got != 0 {
		t.Errorf("overlap > 1 must clamp to zero exposure, got %g", got)
	}
	// Sequence parallelism moves the same volume.
	sp := TPOverheadPerLayer(c, act, 8, true, 0)
	ratio := sp / plain
	if ratio < 0.9 || ratio > 1.2 {
		t.Errorf("SP/plain volume ratio = %g, want ~1", ratio)
	}
}

func TestZeRO1GradSync(t *testing.T) {
	c := CollectiveCost{BandwidthBps: 100e9, Latency: 1e-6}
	if got := ZeRO1GradSync(c, 7e9, 1); got != 0 {
		t.Errorf("DP=1 sync = %g, want 0", got)
	}
	t8 := ZeRO1GradSync(c, 7e9, 8)
	t64 := ZeRO1GradSync(c, 7e9, 64)
	if t64 <= t8 {
		t.Error("larger DP group should cost at least as much per ring step count")
	}
}

// --- Broker fabric ---

func payloadFor(seq uint64, part int, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(seq*31 + uint64(part)*7 + uint64(i))
	}
	return b
}

// TestFabricRoutesInOrder exercises the full concentrate/scatter path:
// 4 upstream DP ranks with TP=2 feed 2 downstream DP ranks with TP=4
// through gcd(4,2)=2 brokers.
func TestFabricRoutesInOrder(t *testing.T) {
	const (
		upDP, upTP     = 4, 2
		downDP, downTP = 2, 4
		brokers        = 2
		seqs           = 40
		partSize       = 64
	)
	f, err := NewFabric(brokers, upDP, upTP, downDP, downTP, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	// Upstream senders: DP rank d emits its owned microbatches in order,
	// each TP part concurrently.
	for d := 0; d < upDP; d++ {
		for p := 0; p < upTP; p++ {
			wg.Add(1)
			go func(d, p int) {
				defer wg.Done()
				for seq := uint64(d); seq < seqs; seq += upDP {
					if err := f.Send(ctx, d, p, seq, payloadFor(seq, p, partSize)); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			}(d, p)
		}
	}

	// Downstream receivers: collect and verify ordering + content.
	recvErr := make(chan error, downDP*downTP)
	var collected sync.Map // seq -> reassembled payload
	for d := 0; d < downDP; d++ {
		for q := 0; q < downTP; q++ {
			wg.Add(1)
			go func(d, q int) {
				defer wg.Done()
				var lastSeq int64 = -1
				for i := 0; i < seqs/downDP; i++ {
					m, err := f.Recv(ctx, d, q)
					if err != nil {
						recvErr <- err
						return
					}
					if int64(m.Seq) <= lastSeq {
						recvErr <- fmt.Errorf("rank (%d,%d): seq %d after %d", d, q, m.Seq, lastSeq)
						return
					}
					lastSeq = int64(m.Seq)
					if int(m.Seq)%downDP != d {
						recvErr <- fmt.Errorf("seq %d delivered to wrong DP rank %d", m.Seq, d)
						return
					}
					key := fmt.Sprintf("%d/%d", m.Seq, q)
					collected.Store(key, m.Payload)
				}
			}(d, q)
		}
	}

	done := make(chan error, 1)
	go func() { done <- f.RunAll(ctx, seqs) }()
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	close(recvErr)
	for err := range recvErr {
		t.Fatal(err)
	}

	// Reassemble every microbatch and compare against the concatenated
	// upstream parts: the broker must preserve bytes exactly.
	for seq := uint64(0); seq < seqs; seq++ {
		var want bytes.Buffer
		for p := 0; p < upTP; p++ {
			want.Write(payloadFor(seq, p, partSize))
		}
		var got bytes.Buffer
		for q := 0; q < downTP; q++ {
			v, ok := collected.Load(fmt.Sprintf("%d/%d", seq, q))
			if !ok {
				t.Fatalf("seq %d part %d never delivered", seq, q)
			}
			got.Write(v.([]byte))
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("seq %d payload corrupted in transit", seq)
		}
	}
}

func TestFabricValidation(t *testing.T) {
	if _, err := NewFabric(0, 2, 1, 2, 1, 1); err == nil {
		t.Error("zero brokers accepted")
	}
	if _, err := NewFabric(3, 4, 1, 2, 1, 1); err == nil {
		t.Error("broker count not dividing DP accepted")
	}
	if _, err := NewFabric(2, 4, 0, 2, 1, 1); err == nil {
		t.Error("zero TP accepted")
	}
}

func TestBrokerDetectsOrderViolation(t *testing.T) {
	f, err := NewFabric(1, 1, 1, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Send seq 1 first: the broker expects 0 and must fail loudly
	// rather than silently reorder.
	f.In[0][0] <- Message{Seq: 1, Part: 0, Payload: []byte("x")}
	if err := f.Brokers[0].Run(ctx, 2); err == nil {
		t.Fatal("broker accepted out-of-order sequence")
	}
}

func TestBrokerContextCancellation(t *testing.T) {
	f, err := NewFabric(1, 1, 1, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Brokers[0].Run(ctx, 10) }()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled broker returned nil")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("broker did not observe cancellation")
	}
}

// Property: split preserves content and balances chunk sizes within one
// byte.
func TestSplitProperties(t *testing.T) {
	f := func(raw []byte, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		chunks := split(raw, n)
		if len(chunks) != n {
			return false
		}
		var rejoined []byte
		minLen, maxLen := math.MaxInt, 0
		for _, c := range chunks {
			rejoined = append(rejoined, c...)
			if len(c) < minLen {
				minLen = len(c)
			}
			if len(c) > maxLen {
				maxLen = len(c)
			}
		}
		return bytes.Equal(rejoined, raw) && maxLen-minLen <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
