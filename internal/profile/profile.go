// Package profile is the -cpuprofile / -memprofile wiring the simulator
// commands share: gossipsim and experiments register the same two flags,
// check them in their validate step and bracket the run with Start and the
// stop function it returns. (cmd/bench profiles its child processes itself.)
package profile

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two profile destinations; empty means off.
type Flags struct {
	CPU string // -cpuprofile
	Mem string // -memprofile
}

// Register declares -cpuprofile and -memprofile on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.CPU, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&f.Mem, "memprofile", "", "write a heap profile to this file when the run ends")
}

// Validate reports what is wrong with the flag values alone.
func (f Flags) Validate() error {
	if f.CPU != "" && f.CPU == f.Mem {
		return fmt.Errorf("-cpuprofile and -memprofile name the same file %q", f.CPU)
	}
	return nil
}

// Start creates the requested files — both now, so a bad path fails before
// the run rather than after it — and starts the CPU profile. The returned
// stop ends the CPU profile and writes the heap profile (after a GC, so it
// shows what is live); call it once, when the run is over. With neither
// flag set both calls do nothing.
func (f Flags) Start() (stop func() error, err error) {
	var cpu, mem *os.File
	if f.CPU != "" {
		if cpu, err = os.Create(f.CPU); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if f.Mem != "" {
		if mem, err = os.Create(f.Mem); err != nil {
			closeAll(cpu)
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			closeAll(cpu, mem)
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		var first error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				first = fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if mem != nil {
			runtime.GC()
			err := pprof.WriteHeapProfile(mem)
			if cerr := mem.Close(); err == nil {
				err = cerr
			}
			if err != nil && first == nil {
				first = fmt.Errorf("-memprofile: %w", err)
			}
		}
		return first
	}, nil
}

// closeAll closes the files of a Start that is failing for another reason;
// nothing was written, so the close errors say nothing the caller needs.
func closeAll(files ...*os.File) {
	for _, f := range files {
		if f != nil {
			f.Close()
		}
	}
}
