// Package profiling gives every command in this repository the same
// profiling surface: -cpuprofile, -memprofile and -trace flags that write
// the standard pprof and runtime/trace formats, so a hot loop found in a
// benchmark can be inspected in the real binaries with
//
//	hotpotato -n 64 -steps 500 -cpuprofile cpu.out
//	go tool pprof cpu.out
//
// The flags are registered on a FlagSet with AddFlags; Start arms the
// requested outputs and returns a stop function the command must run before
// exiting — explicitly before every os.Exit path, failures included, since
// deferred calls do not run there and an unstopped CPU profile is an empty
// file.
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the output destinations selected on the command line; empty
// fields mean the corresponding output is disabled.
type Flags struct {
	CPUProfile string
	MemProfile string
	Trace      string
}

// AddFlags registers the three profiling flags on fs and returns the
// struct they populate.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to this file at exit")
	fs.StringVar(&f.Trace, "trace", "", "write a runtime execution trace to this file")
	return f
}

// Start arms every requested output and returns the function that stops
// them and writes the heap profile. The returned stop is safe to call when
// no flag was set, and only its first call acts: a command's error path
// may call it again after the normal path already has.
func (f *Flags) Start() (stop func() error, err error) {
	var cpuFile, traceFile *os.File
	cleanup := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if traceFile != nil {
			trace.Stop()
			traceFile.Close()
		}
	}
	if f.CPUProfile != "" {
		cpuFile, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			cpuFile = nil
			cleanup()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	if f.Trace != "" {
		traceFile, err = os.Create(f.Trace)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err = trace.Start(traceFile); err != nil {
			traceFile.Close()
			traceFile = nil
			cleanup()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		cleanup()
		if f.MemProfile == "" {
			return nil
		}
		out, err := os.Create(f.MemProfile)
		if err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
		// Materialise the true live heap before snapshotting, the
		// conventional prelude to WriteHeapProfile.
		runtime.GC()
		if err := pprof.WriteHeapProfile(out); err != nil {
			out.Close()
			return fmt.Errorf("profiling: %w", err)
		}
		return out.Close()
	}, nil
}
