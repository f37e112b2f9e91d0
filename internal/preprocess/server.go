package preprocess

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"disttrain/internal/data"
	"disttrain/internal/fanout"
	"disttrain/internal/reorder"
)

// Protocol: every message is a length-prefixed frame —
//
//	uint32   body length (big endian)
//	byte     opcode
//	...      opcode-specific body
//
// There is one request: opFetchTenant asks for one DP rank's
// microbatches of one iteration and names everything the answer depends
// on — tenant id (uint32), the tenant's DP width (uint32), iteration
// (uint64), rank (uint32) — so one producer fleet serves many training
// jobs at different, and changing, geometries at once. opBatch answers
// it; opError carries a deterministic rejection. The protocol is
// deliberately minimal: producers are stateless per request, so any
// consumer can fetch any (tenant, iteration, rank) triple — the
// property that makes preprocessing elastically scalable (§8).
const (
	opFetchTenant byte = 0x02
	opBatch       byte = 0x81
	opError       byte = 0xee

	// fetchRequestLen is the one legal request body: opcode, tenant, dp,
	// iteration, rank. A producer reads no request frame longer than
	// this; maxFrame bounds the replies a client reads.
	fetchRequestLen = 1 + 4 + 4 + 8 + 4
	maxFrame        = 1 << 30
)

// Config parameterises a producer.
type Config struct {
	// Source supplies raw samples.
	Source Source
	// GlobalBatch and Microbatch shape each iteration's assignment.
	// Every fetch names its own DP width, so DPSize splits nothing a
	// Server serves: it is the co-located baseline's split (Colocated)
	// and the worker-pool default. GlobalBatch must divide evenly across
	// DPSize ranks in multiples of Microbatch.
	GlobalBatch, DPSize, Microbatch int
	// Reorder applies Algorithm 1 across ranks and Algorithm 2 within
	// each rank (using a token-count cost proxy over PipelineStages).
	Reorder        bool
	PipelineStages int
	// Workers bounds the goroutines one iteration's samples are
	// preprocessed on, the building one included (default 2*DPSize).
	Workers int
	// Readahead prefetches this many future iterations along the route
	// each consumer rank reaches this producer by, so consumers find
	// their next batch built.
	Readahead int
}

// producerCacheCap bounds a producer's iteration cache. The watermark
// eviction keeps everything a lagging rank still needs; beyond
// producerCacheCap iterations the oldest entries drop anyway, and a
// rank silent while producerCacheCap iterations were built is
// forgotten, so a stalled or retired rank costs a bounded cache, never
// unbounded growth. A laggard farther behind rebuilds on return — a
// cost event, not a correctness one.
const producerCacheCap = 64

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Source == nil:
		return errors.New("preprocess: nil source")
	case c.GlobalBatch <= 0 || c.DPSize <= 0 || c.Microbatch <= 0:
		return errors.New("preprocess: non-positive batch geometry")
	case c.GlobalBatch%(c.DPSize*c.Microbatch) != 0:
		return fmt.Errorf("preprocess: DP*M=%d must divide BS=%d", c.DPSize*c.Microbatch, c.GlobalBatch)
	case c.Reorder && c.PipelineStages < 2:
		return errors.New("preprocess: reordering needs at least 2 pipeline stages")
	}
	return nil
}

// errServerClosed marks fetches refused because the server is shutting
// down — a transport-level condition, never sent as an opError frame.
var errServerClosed = errors.New("preprocess: server closed")

// RankBatch is one rank's iteration worth of preprocessed microbatches.
type RankBatch struct {
	Iter         int64
	Rank         int
	Microbatches [][]Processed
}

// Server is the producer: it preprocesses iterations on a worker pool,
// caches them, and serves fetch requests over TCP.
type Server struct {
	cfg Config
	// cacheCap starts at producerCacheCap; tests shrink it.
	cacheCap int

	mu       sync.Mutex
	cache    map[buildKey][][]Processed // (iter, dp) -> [rank][mb*... flattened per rank]
	inflight map[buildKey]*inflightBuild
	// watermark tracks each (tenant, rank)'s highest fetched iteration
	// and the route it arrives by (mark); the cache evicts only below the
	// minimum across every tenant's ranks, so a lagging consumer never
	// has its batch evicted and rebuilt under it — and one tenant's
	// laggard holds the floor for every tenant's entries alike (the
	// shared producer cache is not partitioned; the consumer-side
	// Service cache is).
	watermark map[wmKey]mark
	// tenantDP remembers each tenant's last-seen DP width: the floor is
	// only trusted once every rank of every known tenant has fetched.
	tenantDP map[uint32]int
	conns    map[net.Conn]struct{}

	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup

	// builds counts iteration materialisations — the cache-behaviour
	// observable the eviction tests pin, and the clock a silent rank is
	// forgotten by.
	builds atomic.Int64
}

// NewServer validates the config and builds a producer.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2 * cfg.DPSize
	}
	return &Server{
		cfg:       cfg,
		cacheCap:  producerCacheCap,
		cache:     map[buildKey][][]Processed{},
		inflight:  map[buildKey]*inflightBuild{},
		watermark: map[wmKey]mark{},
		tenantDP:  map[uint32]int{},
		conns:     map[net.Conn]struct{}{},
		closed:    make(chan struct{}),
	}, nil
}

// buildKey identifies one materialised iteration: tenants with
// different DP widths split (and reorder) the same global batch
// differently, so the cache is keyed by both.
type buildKey struct {
	iter int64
	dp   int
}

// wmKey identifies one consumer rank of one tenant in the fetch
// watermark.
type wmKey struct {
	tenant uint32
	rank   int
}

// mark is one (tenant, rank)'s place at this server: the highest
// iteration it fetched, the last two gaps between the iterations it
// advanced to (0 until seen) and the build count at its last fetch.
// Consumers send every fetch of an (iteration, width) to one primary
// and fail over along a ring, so the gaps repeat with period two at
// most — n on a healthy fleet of n, 1 on the survivor of two, 1 and n-1
// alternating on a member absorbing its dead ring predecessor's share —
// and readahead steps along them, the older gap first. Each rank keeps
// its own route, so tenants at different iterations (jobs admitted at
// different times each start at 0) never disturb each other's.
type mark struct{ iter, gap, prev, at int64 }

// Close stops the server: no new work starts, active connections are
// torn down, and Close blocks until every tracked goroutine (handlers
// and readahead builds) has finished.
func (s *Server) Close() {
	s.once.Do(func() {
		s.mu.Lock()
		close(s.closed)
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
}

// begin registers one unit of background work with the server's
// WaitGroup, refusing once the server is closed. The closed check and
// the Add share the mutex Close closes the channel under, so no work
// can slip in after Close has begun waiting.
func (s *Server) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
		s.wg.Add(1)
		return true
	}
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
				return err
			}
		}
		if !s.begin() {
			conn.Close()
			return nil
		}
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		select {
		case <-s.closed:
			return
		default:
		}
		body, err := readFrame(br, fetchRequestLen)
		if err != nil {
			return // EOF, broken peer or oversized request: drop the connection
		}
		if len(body) == 0 {
			return
		}
		if body[0] != opFetchTenant {
			writeError(bw, fmt.Sprintf("unknown opcode %#x", body[0]))
			return
		}
		if len(body) != fetchRequestLen {
			writeError(bw, "malformed tenant fetch")
			return
		}
		tenant := binary.BigEndian.Uint32(body[1:5])
		dp := int(binary.BigEndian.Uint32(body[5:9]))
		iter := int64(binary.BigEndian.Uint64(body[9:17]))
		rank := int(binary.BigEndian.Uint32(body[17:21]))
		rb, err := s.FetchTenant(tenant, dp, iter, rank)
		if err != nil {
			// Shutdown is a transport event, not a protocol answer:
			// dropping the connection makes the client's pool fail over,
			// whereas an opError frame would be classified as a
			// deterministic serverError and returned to the caller
			// unretried.
			if errors.Is(err, errServerClosed) {
				return
			}
			writeError(bw, err.Error())
			continue
		}
		if err := writeBatch(bw, rb); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// FetchTenant returns one (tenant, iteration, rank) batch split across
// dp data-parallel ranks, materialising the iteration if needed and
// kicking off readahead along the rank's route here. The tenant id
// partitions the fetch watermark (each tenant's laggard is tracked
// separately); dp must divide the global batch in multiples of the
// microbatch — a deterministic protocol rejection otherwise, never a
// failover.
func (s *Server) FetchTenant(tenant uint32, dp int, iter int64, rank int) (*RankBatch, error) {
	if dp < 1 || s.cfg.GlobalBatch%(dp*s.cfg.Microbatch) != 0 {
		return nil, fmt.Errorf("preprocess: DP*M=%d must divide BS=%d", dp*s.cfg.Microbatch, s.cfg.GlobalBatch)
	}
	if rank < 0 || rank >= dp {
		return nil, fmt.Errorf("preprocess: rank %d outside DP size %d", rank, dp)
	}
	select {
	case <-s.closed:
		return nil, errServerClosed
	default:
	}
	s.mu.Lock()
	if prev, ok := s.tenantDP[tenant]; !ok || prev != dp {
		// A tenant changing width (elastic lease resize) invalidates its
		// stale rank watermarks: entries at ranks the new geometry no
		// longer has would freeze the eviction floor forever.
		for k := range s.watermark {
			if k.tenant == tenant && k.rank >= dp {
				delete(s.watermark, k)
			}
		}
		s.tenantDP[tenant] = dp
	}
	wk := wmKey{tenant, rank}
	w, seen := s.watermark[wk]
	advanced := !seen || iter > w.iter
	if advanced {
		if seen {
			gap := iter - w.iter
			w.prev, w.gap = cmp.Or(w.gap, gap), gap
		}
		w.iter = iter
	}
	w.at = s.builds.Load()
	s.watermark[wk] = w
	if advanced {
		s.evictLocked()
	}
	s.mu.Unlock()
	perRank, err := s.iteration(iter, dp, false)
	if err != nil {
		return nil, err
	}
	// Asynchronous readahead: the producer works ahead of this rank along
	// its route (a lone producer's steps are 1). Each warmup goroutine is
	// registered with the server's WaitGroup and re-checks closed before
	// building, so Close never returns while a build is still touching
	// the Source.
	steps := [2]int64{cmp.Or(w.prev, 1), cmp.Or(w.gap, 1)}
	for k, it := 0, iter; k < s.cfg.Readahead; k++ {
		it += steps[k%2]
		if !s.begin() {
			break
		}
		go func() {
			defer s.wg.Done()
			select {
			case <-s.closed:
			default:
				s.iteration(it, dp, true) //nolint:errcheck // best-effort warmup
			}
		}()
	}
	m := s.cfg.Microbatch
	k := len(perRank[rank]) / m
	rb := &RankBatch{Iter: iter, Rank: rank, Microbatches: make([][]Processed, k)}
	for j := 0; j < k; j++ {
		rb.Microbatches[j] = perRank[rank][j*m : (j+1)*m]
	}
	return rb, nil
}

// inflightBuild is one materialisation in progress. Waiters read the
// result off the record, not the cache: a re-fetch below the watermark
// floor (a restarted consumer) is evicted the moment it is cached.
type inflightBuild struct {
	done chan struct{}
	out  [][]Processed
	err  error
}

// iteration materialises (or waits for) one preprocessed iteration at
// one DP width. A readahead (ahead) of an iteration every rank has
// fetched past — below the complete eviction floor — builds nothing
// and returns nil. It checks under the s.mu that fetches raise the
// floor under, so the last rank's fetch either waits on its build or
// finds it skipped.
func (s *Server) iteration(iter int64, dp int, ahead bool) ([][]Processed, error) {
	key := buildKey{iter, dp}
	s.mu.Lock()
	if got, ok := s.cache[key]; ok {
		s.mu.Unlock()
		return got, nil
	}
	if b, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-b.done
		return b.out, b.err
	}
	if ahead {
		if floor, complete := s.floorLocked(); complete && iter < floor {
			s.mu.Unlock()
			return nil, nil
		}
	}
	b := &inflightBuild{done: make(chan struct{})}
	s.inflight[key] = b
	s.mu.Unlock()

	b.out, b.err = s.build(iter, dp)

	s.mu.Lock()
	delete(s.inflight, key)
	if b.err == nil {
		s.cache[key] = b.out
		s.evictLocked()
	}
	s.mu.Unlock()
	close(b.done)
	return b.out, b.err
}

// evictLocked bounds the cache against the eviction floor
// (floorLocked): an iteration is dropped only once every rank of every
// known tenant has fetched past it. Evicting relative to the newest
// build instead would rebuild a lagging rank's batch on every fetch.
// Either way cacheCap backstops the cache size — oldest iterations
// drop first — so a dead or never-connecting rank cannot grow the
// cache without bound. Callers hold s.mu.
func (s *Server) evictLocked() {
	if floor, complete := s.floorLocked(); complete {
		for k := range s.cache {
			if k.iter < floor {
				delete(s.cache, k)
			}
		}
	}
	for len(s.cache) > s.cacheCap {
		var oldest buildKey
		first := true
		for k := range s.cache {
			if first || k.iter < oldest.iter || (k.iter == oldest.iter && k.dp < oldest.dp) {
				oldest, first = k, false
			}
		}
		delete(s.cache, oldest)
	}
}

// floorLocked returns the minimum fetch watermark across every tenant's
// ranks, and whether it is complete: until every known tenant has had
// all of its DP ranks fetch at least once there is no safe floor from
// the watermarks. A rank that fetched nothing while this server built
// more than cacheCap iterations is forgotten, and a tenant with no rank
// left, so a retired tenant pins no floor. The clock is builds, not
// iteration numbers: tenants count iterations independently (every job
// starts at 0), so a live tenant far behind another is not mistaken for
// a retired one. Callers hold s.mu.
func (s *Server) floorLocked() (floor int64, complete bool) {
	now := s.builds.Load()
	first := true
	ranksSeen := make(map[uint32]int, len(s.tenantDP))
	for k, w := range s.watermark {
		if now-w.at > int64(s.cacheCap) {
			delete(s.watermark, k)
			continue
		}
		ranksSeen[k.tenant]++
		if first || w.iter < floor {
			floor, first = w.iter, false
		}
	}
	complete = len(ranksSeen) > 0
	for tn, dp := range s.tenantDP {
		if ranksSeen[tn] == 0 {
			delete(s.tenantDP, tn)
		} else if ranksSeen[tn] != dp {
			complete = false
		}
	}
	return floor, complete
}

// build preprocesses one full iteration at one DP width: fetch raw
// samples, run the pixel pipeline on the worker pool, then apply both
// reordering levels.
func (s *Server) build(iter int64, dp int) ([][]Processed, error) {
	s.builds.Add(1)
	bs := s.cfg.GlobalBatch
	raw := make([]data.Sample, bs)
	for i := range raw {
		raw[i] = s.cfg.Source.Sample(iter*int64(bs) + int64(i))
	}
	processed := make([]Processed, bs)
	errs := make([]error, bs)
	// Cursor-fed workers, the calling goroutine one of them, each sample
	// borrowing a pooled pixel scratch. A goroutine per sample behind a
	// semaphore — this loop's shape while a sample allocated 900 KB of
	// pixel temporaries, and cursor-fed workers cost 20% more peak RSS —
	// no longer differs: ten alternating preprocess-fanin pairs read
	// op_ms_p50 3.06 ms (per-sample goroutines) vs 3.11 ms (this), each
	// side's runs spread over 2.7-3.5 ms, and peak_rss_mb 28.4-28.9 vs
	// 28.5-29.0, so the repo's one worker pool stays the only one.
	fanout.Run(context.Background(), s.cfg.Workers, bs, func(i int) {
		processed[i], errs[i] = ProcessSample(raw[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	perRank := len(processed) / dp
	out := make([][]Processed, dp)
	if !s.cfg.Reorder {
		for d := range out {
			out[d] = processed[d*perRank : (d+1)*perRank]
		}
		return out, nil
	}
	// Algorithm 1 across ranks, with the modality token count as the
	// heterogeneous-cost proxy: price every sample once, then partition
	// and rebalance over indices. LPT balances load but may leave ranks
	// of unequal cardinality; the rebalance moves the surplus
	// smallest-cost first (the least damage to the balance), preserving
	// the sample multiset.
	costs := make([]float64, len(processed))
	for i := range processed {
		costs[i] = modalitySize(processed[i])
	}
	var part reorder.Partitioner
	idxGroups, err := part.Partition(costs, dp)
	if err != nil {
		return nil, err
	}
	idxGroups = part.Rebalance(idxGroups, perRank, costs)
	// Algorithm 2 within each rank over a stage-time proxy: encoder
	// time tracks image tokens, generator time tracks generated images,
	// the LLM stages are constant.
	for d, group := range idxGroups {
		mbs := make([]reorder.Microbatch, len(group))
		for j, i := range group {
			p := processed[i]
			fwd := make([]float64, s.cfg.PipelineStages)
			bwd := make([]float64, s.cfg.PipelineStages)
			for st := range fwd {
				switch st {
				case 0:
					fwd[st] = float64(p.ImageTokens)
				case s.cfg.PipelineStages - 1:
					fwd[st] = 1024 * float64(p.GenImages)
				default:
					fwd[st] = 8192
				}
				bwd[st] = 2 * fwd[st]
			}
			mbs[j] = reorder.Microbatch{Index: j, Fwd: fwd, Bwd: bwd}
		}
		order, err := reorder.InterReorder(mbs, nil)
		if err != nil {
			return nil, err
		}
		reordered := make([]Processed, len(order))
		for j, mb := range order {
			reordered[j] = processed[group[mb.Index]]
		}
		out[d] = reordered
	}
	return out, nil
}

// modalitySize is the heterogeneous-cost proxy of a processed sample:
// modality tokens plus a fixed charge per generated image. Algorithm
// 1's partition and the rebalance both order by it.
func modalitySize(p Processed) float64 {
	return float64(p.ImageTokens) + 64*float64(p.GenImages)
}

// --- wire helpers ---

// readFrame reads one frame whose body is at most limit bytes. The
// length prefix is untrusted: it is checked before it sizes the body.
func readFrame(r *bufio.Reader, limit uint32) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > limit {
		return nil, fmt.Errorf("preprocess: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

func writeFrame(w *bufio.Writer, body []byte) error {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(body)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// writeError sends one opError frame. A failed write is dropped: the
// next read on the broken connection ends the handler.
func writeError(w *bufio.Writer, msg string) {
	body := append([]byte{opError}, msg...)
	writeFrame(w, body) //nolint:errcheck
	w.Flush()           //nolint:errcheck
}

func writeBatch(w *bufio.Writer, rb *RankBatch) error {
	// opcode + iter + rank + mbCount, then per microbatch: sample count
	// and per sample: index, image/text/gen meta, payload.
	size := 1 + 8 + 4 + 4
	for _, mb := range rb.Microbatches {
		size += 4
		for _, p := range mb {
			size += 8 + 4 + 4 + 4 + 4 + len(p.TokenPayload)
		}
	}
	body := make([]byte, 0, size)
	body = append(body, opBatch)
	body = binary.BigEndian.AppendUint64(body, uint64(rb.Iter))
	body = binary.BigEndian.AppendUint32(body, uint32(rb.Rank))
	body = binary.BigEndian.AppendUint32(body, uint32(len(rb.Microbatches)))
	for _, mb := range rb.Microbatches {
		body = binary.BigEndian.AppendUint32(body, uint32(len(mb)))
		for _, p := range mb {
			body = binary.BigEndian.AppendUint64(body, uint64(p.SampleIndex))
			body = binary.BigEndian.AppendUint32(body, uint32(p.ImageTokens))
			body = binary.BigEndian.AppendUint32(body, uint32(p.TextTokens))
			body = binary.BigEndian.AppendUint32(body, uint32(p.GenImages))
			body = binary.BigEndian.AppendUint32(body, uint32(len(p.TokenPayload)))
			body = append(body, p.TokenPayload...)
		}
	}
	return writeFrame(w, body)
}

// serverError is a protocol-level error frame sent by a producer — a
// deterministic rejection (bad rank, failed build), not a transport
// failure, so pool clients must not fail over on it.
type serverError struct{ Msg string }

func (e *serverError) Error() string { return "preprocess: server error: " + e.Msg }

// sampleHeaderLen is the fixed wire size of one sample's metadata:
// index (8) + image/text/gen token counts (4 each) + payload length (4).
const sampleHeaderLen = 8 + 4 + 4 + 4 + 4

func parseBatch(body []byte) (*RankBatch, error) {
	if len(body) < 1+8+4+4 || body[0] != opBatch {
		if len(body) > 0 && body[0] == opError {
			return nil, &serverError{Msg: string(body[1:])}
		}
		return nil, errors.New("preprocess: malformed batch frame")
	}
	off := 1
	u64 := func() uint64 { v := binary.BigEndian.Uint64(body[off:]); off += 8; return v }
	u32 := func() uint32 { v := binary.BigEndian.Uint32(body[off:]); off += 4; return v }
	rb := &RankBatch{Iter: int64(u64()), Rank: int(u32())}
	// Wire-supplied counts are untrusted: every count is bounds-checked
	// against the bytes actually remaining in the frame before it sizes
	// an allocation, so a corrupt or adversarial frame cannot drive
	// multi-gigabyte makes.
	mbCount := int(u32())
	if mbCount < 0 || mbCount > (len(body)-off)/4 {
		return nil, fmt.Errorf("preprocess: implausible microbatch count %d in %d-byte frame", mbCount, len(body))
	}
	rb.Microbatches = make([][]Processed, 0, mbCount)
	for j := 0; j < mbCount; j++ {
		if off+4 > len(body) {
			return nil, errors.New("preprocess: truncated batch frame")
		}
		n := int(u32())
		if n < 0 || n > (len(body)-off)/sampleHeaderLen {
			return nil, fmt.Errorf("preprocess: implausible sample count %d in %d-byte frame", n, len(body))
		}
		mb := make([]Processed, 0, n)
		for i := 0; i < n; i++ {
			if off+sampleHeaderLen > len(body) {
				return nil, errors.New("preprocess: truncated sample header")
			}
			var p Processed
			p.SampleIndex = int64(u64())
			p.ImageTokens = int32(u32())
			p.TextTokens = int32(u32())
			p.GenImages = int32(u32())
			plen := int(u32())
			if plen < 0 || plen > len(body)-off {
				return nil, errors.New("preprocess: truncated payload")
			}
			p.TokenPayload = append([]byte(nil), body[off:off+plen]...)
			off += plen
			mb = append(mb, p)
		}
		rb.Microbatches = append(rb.Microbatches, mb)
	}
	return rb, nil
}

// Colocated runs the identical preprocessing pipeline synchronously on
// the caller — the monolithic baseline whose stall Figure 17 measures.
type Colocated struct {
	cfg Config
}

// NewColocated builds the inline preprocessor.
func NewColocated(cfg Config) (*Colocated, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Colocated{cfg: cfg}, nil
}

// Fetch preprocesses rank 0's batch of the iteration on the calling
// goroutine, blocking the training loop for the full CPU cost.
func (c *Colocated) Fetch(ctx context.Context, iter int64) (*RankBatch, error) {
	bs := c.cfg.GlobalBatch
	perRank := bs / c.cfg.DPSize
	m := c.cfg.Microbatch
	rb := &RankBatch{Iter: iter}
	start := iter * int64(bs)
	var mb []Processed
	for i := 0; i < perRank; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := ProcessSample(c.cfg.Source.Sample(start + int64(i)))
		if err != nil {
			return nil, err
		}
		mb = append(mb, p)
		if len(mb) == m {
			rb.Microbatches = append(rb.Microbatches, mb)
			mb = nil
		}
	}
	return rb, nil
}
