// Package sim provides a deterministic discrete-event simulation kernel.
//
// A Sim owns a virtual clock and a set of cooperative processes (Proc).
// Exactly one process runs at a time; a process gives up control only by
// calling a blocking primitive (Sleep, Block, or a primitive built on
// them), at which point the scheduler resumes the next runnable process
// or advances the clock to the next timed event. Execution is therefore
// fully deterministic: the same program produces the same event order and
// the same virtual timings on every run, independent of the host
// scheduler or garbage collector.
//
// The kernel is the substrate for the reproduction of McVoy & Kleiman,
// "Extent-like Performance from a UNIX File System" (USENIX Winter 1991):
// the disk, driver, VM daemon, and benchmark workloads all run as sim
// processes, and every reported throughput or CPU figure is measured in
// virtual time.
package sim

import "fmt"

// Time is a point in virtual time or a duration, in nanoseconds.
// The simulation starts at Time 0.
type Time int64

// Convenient duration units, mirroring time.Duration.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, e.g. "4.2ms" or "1.61s".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.2fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	}
}
