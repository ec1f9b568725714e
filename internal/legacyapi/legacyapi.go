// Package legacyapi holds the host-path cost profile of the decades-old I/O
// interfaces the earlier DeLiBA frameworks were built on and that the
// paper's Section II critiques: one syscall per operation, multiple
// user/kernel context switches, and repeated buffer copies. The NBD daemon
// loop that charges it is core's NBD host API; the profile is kept here so
// the io_uring comparison is apples to apples.
package legacyapi

import "repro/internal/sim"

// CostProfile charges the host-side path costs of a legacy API.
type CostProfile struct {
	// SyscallCost per system call (read, write, io_submit, io_getevents).
	SyscallCost sim.Duration
	// ContextSwitches is the number of user/kernel crossings per I/O
	// beyond the syscall itself (the paper counts 6 for DeLiBA-1 and 5
	// for DeLiBA-2).
	ContextSwitches int
	// ContextSwitchCost per crossing.
	ContextSwitchCost sim.Duration
	// Copies is the number of full-buffer memory copies per I/O.
	Copies int
	// CopyPerKiB is the cost of copying 1024 bytes once.
	CopyPerKiB sim.Duration
}

// DefaultCosts returns a typical host profile (calibrated in
// internal/core/costmodel).
func DefaultCosts() CostProfile {
	return CostProfile{
		SyscallCost:       1200 * sim.Nanosecond,
		ContextSwitches:   2,
		ContextSwitchCost: 1500 * sim.Nanosecond,
		Copies:            1,
		CopyPerKiB:        60 * sim.Nanosecond,
	}
}

// PathCost returns the total host-side CPU charge for one I/O of n bytes.
func (c CostProfile) PathCost(n int) sim.Duration {
	return c.SyscallCost +
		sim.Duration(c.ContextSwitches)*c.ContextSwitchCost +
		sim.Duration(c.Copies)*sim.Duration(int64(c.CopyPerKiB)*int64(n)/1024)
}
