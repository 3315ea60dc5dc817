// Package profiling wires the command-line tools' -cpuprofile,
// -memprofile, -mutexprofile and -blockprofile flags to runtime/pprof,
// so a slow sweep or bench run can be inspected with `go tool pprof`
// without ad-hoc instrumentation.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles names the profile outputs a tool wants collected; empty
// paths are skipped.
type Profiles struct {
	// CPU is sampled for the whole Start..stop window.
	CPU string
	// Mem is a heap profile written at stop, after a GC, so it
	// reflects steady-state retention rather than GC timing.
	Mem string
	// Mutex enables contended-mutex sampling (every contention event)
	// for the window and writes the profile at stop — the tool for
	// "the plan cache's lock serialises workers" class of questions.
	Mutex string
	// Block enables goroutine blocking sampling (every event) for the
	// window and writes the profile at stop: time parked on channels
	// and condition variables, e.g. dispatcher hand-offs.
	Block string
}

// StartProfiles begins every requested profile and returns a stop
// function that writes and closes them. Mutex and block sampling rates
// are process-global: StartProfiles sets them only when the matching
// profile was requested and restores zero rates at stop. Callers must
// invoke stop on the exit paths that should yield usable profiles — a
// bare os.Exit skips deferred calls, so mains that profile return an
// exit code instead.
func StartProfiles(p Profiles) (stop func() error, err error) {
	var cpuFile *os.File
	if p.CPU != "" {
		cpuFile, err = os.Create(p.CPU)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	if p.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if p.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	return func() error {
		var firstErr error
		keep := func(err error) {
			if firstErr == nil && err != nil {
				firstErr = err
			}
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			keep(cpuFile.Close())
		}
		if p.Mutex != "" {
			keep(writeLookup("mutex", p.Mutex))
			runtime.SetMutexProfileFraction(0)
		}
		if p.Block != "" {
			keep(writeLookup("block", p.Block))
			runtime.SetBlockProfileRate(0)
		}
		if p.Mem != "" {
			f, err := os.Create(p.Mem)
			if err != nil {
				keep(err)
			} else {
				// Flush recently freed objects out of the live set so
				// the profile reflects steady-state retention, not GC
				// timing.
				runtime.GC()
				keep(pprof.WriteHeapProfile(f))
				keep(f.Close())
			}
		}
		return firstErr
	}, nil
}

// writeLookup writes one of runtime/pprof's named profiles (debug=0,
// the binary proto format `go tool pprof` wants).
func writeLookup(name, path string) error {
	prof := pprof.Lookup(name)
	if prof == nil {
		return fmt.Errorf("profiling: no %q profile in this runtime", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := prof.WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Start begins CPU profiling to cpuPath (when non-empty) and returns a
// stop function that ends the CPU profile and, when memPath is
// non-empty, writes a heap profile there. Either path may be empty;
// with both empty the returned stop is a no-op. Kept as the two-flag
// shorthand for StartProfiles.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	return StartProfiles(Profiles{CPU: cpuPath, Mem: memPath})
}
