// Package prof gives every CLI the same three pprof file flags —
// -cpuprofile, -memprofile, -mutexprofile — with one Start/Stop pair
// around the workload. The profiles drive the hot-loop optimization
// workflow documented in the README: `make profile` runs the fleet
// sweep under these flags and `go tool pprof` reads the output.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the registered profile destinations.
type Flags struct {
	cpu   *string
	mem   *string
	mutex *string
}

// Register adds the profiling flags to fs (the CLI's flag set).
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		cpu:   fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem:   fs.String("memprofile", "", "write an allocation (heap) profile to this file on exit"),
		mutex: fs.String("mutexprofile", "", "write a mutex-contention profile to this file on exit"),
	}
}

// Start begins the requested profiles and returns a stop function that
// finalises them; call it exactly once, after the workload (typically
// via defer). With no profile flags set both Start and stop are no-ops.
func (f *Flags) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if *f.cpu != "" {
		cpuFile, err = os.Create(*f.cpu)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	if *f.mutex != "" {
		// Sample every contention event: the simulated workloads are
		// short-lived, and full sampling keeps small contention sites
		// (the trace lock, the plan cache) visible.
		runtime.SetMutexProfileFraction(1)
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("prof: %w", err)
			}
		}
		if *f.mem != "" {
			if err := writeProfile("allocs", *f.mem); err != nil {
				return err
			}
		}
		if *f.mutex != "" {
			if err := writeProfile("mutex", *f.mutex); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// writeProfile dumps one named runtime profile to path. The allocs
// profile is preceded by a GC so the heap numbers reflect live data
// plus complete allocation counts, matching `go test -memprofile`.
func writeProfile(name, path string) error {
	p := pprof.Lookup(name)
	if p == nil {
		return fmt.Errorf("prof: unknown profile %q", name)
	}
	if name == "allocs" {
		runtime.GC()
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	if err := p.WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("prof: write %s profile: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	return nil
}
