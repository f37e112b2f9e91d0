// Command disttrain-preprocd runs the disaggregated data preprocessing
// producer: a TCP service that decodes, resizes and packs multimodal
// samples on CPU, balances them across the consumer's DP ranks with
// Algorithm 1 priced as disttrain-sim's trainer prices -model and
// -freeze, and streams training-ready microbatches to GPU consumers
// (§5.1), which run Algorithm 2.
//
// -addr accepts a comma-separated list to run a whole producer pool in
// one process — each address gets its own independent (stateless)
// server, the layout the consumer-side preprocess.Service
// load-balances and fails over across. Every fetch names its own DP
// width, so a producer is configured with the batch geometry only.
//
// Examples:
//
//	disttrain-preprocd -addr :7420 -batch 128 -model 72b
//	disttrain-preprocd -addr :7420,:7421,:7422 -batch 128
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"

	"disttrain/internal/experiments"
	"disttrain/internal/model"
	"disttrain/internal/preprocess"
	"disttrain/internal/prof"
)

func main() {
	var (
		addrs     = flag.String("addr", "127.0.0.1:7420", "listen address, or comma-separated list for a pool")
		batch     = flag.Int("batch", 128, "global batch size")
		micro     = flag.Int("micro", 1, "microbatch size")
		modelName = flag.String("model", "9b", "model preset whose sample cost Algorithm 1 balances: 9b, 15b or 72b")
		freeze    = flag.String("freeze", "full", "freeze setting (§7.3) of that cost")
		workers   = flag.Int("workers", 16, "preprocessing worker goroutines per producer")
		readahead = flag.Int("readahead", 2, "iterations to prefetch")
	)
	profFlags := prof.Register(flag.CommandLine)
	flag.Parse()
	stopProf, err := profFlags.Start()
	if err != nil {
		fatal(err)
	}

	m, err := model.ByName(*modelName)
	if err != nil {
		fatal(err)
	}
	fr, err := model.FreezeByName(*freeze)
	if err != nil {
		fatal(err)
	}
	// A sample's cost is priced at width 1: any node count prices alike.
	spec, corpus, err := experiments.NewSpec(m, 1, *batch, fr)
	if err != nil {
		fatal(err)
	}
	cfg := preprocess.Config{
		Source:      corpus,
		GlobalBatch: *batch,
		DPSize:      1, // fetches carry their own width; this only has to validate
		Microbatch:  *micro,
		Cost:        spec.Profiler.Cost,
		Workers:     *workers,
		Readahead:   *readahead,
	}

	var servers []*preprocess.Server
	var listeners []net.Listener
	var wg sync.WaitGroup
	var failed atomic.Bool
	for _, addr := range strings.Split(*addrs, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		srv, err := preprocess.NewServer(cfg)
		if err != nil {
			fatal(err)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			fatal(err)
		}
		servers = append(servers, srv)
		listeners = append(listeners, ln)
		fmt.Printf("disttrain-preprocd: serving %d-sample batches on %s (%s, freeze %s)\n",
			*batch, ln.Addr(), m.Name, fr.Name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Serve returns nil on clean shutdown; a real error is
			// reported immediately — the pool keeps serving from its
			// other members, but the operator must see the degradation.
			if err := srv.Serve(ln); err != nil {
				failed.Store(true)
				fmt.Fprintf(os.Stderr, "disttrain-preprocd: producer on %s died: %v\n", ln.Addr(), err)
			}
		}()
	}
	if len(servers) == 0 {
		fatal(fmt.Errorf("no listen addresses in %q", *addrs))
	}

	done := make(chan os.Signal, 1)
	signal.Notify(done, os.Interrupt)
	go func() {
		<-done
		fmt.Println("\ndisttrain-preprocd: shutting down")
		// The server closes first so its Serve loop sees a clean
		// shutdown (not an accept error) when the listener follows.
		for i := range servers {
			servers[i].Close()
			listeners[i].Close()
		}
	}()
	wg.Wait()
	if err := stopProf(); err != nil {
		fatal(err)
	}
	if failed.Load() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "disttrain-preprocd:", err)
	os.Exit(1)
}
