// Package sim is the chaos harness: a FaultInjector arms one fault (kill,
// hang or network partition of a server) and fires it when a query reaches
// a chosen lifecycle phase.
package sim

import (
	"fmt"
	"sync"
)

// QueryPhase identifies a point in a distributed query's lifecycle at
// which a fault injector may fire. The cluster invokes its configured
// phase hook at each boundary; see cluster.Config.PhaseHook.
type QueryPhase int

const (
	// PhaseCompiled fires after the plan has been compiled on every server
	// and its exchange state opened, before any morsel executes.
	PhaseCompiled QueryPhase = iota
	// PhaseExecuting fires once the per-server execution has been
	// launched: scans are already producing morsels when the hook runs.
	PhaseExecuting
)

func (p QueryPhase) String() string {
	switch p {
	case PhaseCompiled:
		return "compiled"
	case PhaseExecuting:
		return "executing"
	default:
		return fmt.Sprintf("QueryPhase(%d)", int(p))
	}
}

// FaultKind selects what happens to the targeted server.
type FaultKind int

const (
	// FaultKill crashes the server process: its engine, multiplexer and
	// endpoint shut down immediately.
	FaultKill FaultKind = iota
	// FaultHang freezes the server process (SIGSTOP): it stops sending and
	// answers no probes, but its NIC keeps consuming inbound traffic.
	FaultHang
	// FaultPartition cuts the server's switch port: all traffic to and
	// from it is dropped, while the process itself keeps running.
	FaultPartition
)

func (k FaultKind) String() string {
	switch k {
	case FaultKill:
		return "kill"
	case FaultHang:
		return "hang"
	case FaultPartition:
		return "partition"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Target is the surface a fault injector manipulates. The cluster
// implements it; keeping the interface here lets the simulation kernel
// define fault plans without importing the engine.
type Target interface {
	// KillServer crashes server id immediately.
	KillServer(id int) error
	// HangServer freezes server id (stops sending, ignores probes).
	HangServer(id int) error
	// PartitionServer cuts server id off from the network fabric.
	PartitionServer(id int) error
}

// FaultPlan describes one fault: which server, what happens to it, and at
// which query phase it strikes.
type FaultPlan struct {
	Kind   FaultKind
	Server int
	Phase  QueryPhase
}

// FaultInjector arms a single fault against a target and fires it the
// first time the planned phase is reached; subsequent phases (including
// the retried query's) are ignored. Safe for concurrent use.
type FaultInjector struct {
	target Target
	plan   FaultPlan

	mu    sync.Mutex
	fired bool
	err   error
}

// NewFaultInjector arms plan against target.
func NewFaultInjector(target Target, plan FaultPlan) *FaultInjector {
	return &FaultInjector{target: target, plan: plan}
}

// OnPhase fires the armed fault if p matches the plan and it has not fired
// yet. Pass it as (or call it from) the cluster's phase hook.
func (fi *FaultInjector) OnPhase(p QueryPhase) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	if fi.fired || p != fi.plan.Phase {
		return
	}
	fi.fired = true
	switch fi.plan.Kind {
	case FaultKill:
		fi.err = fi.target.KillServer(fi.plan.Server)
	case FaultHang:
		fi.err = fi.target.HangServer(fi.plan.Server)
	case FaultPartition:
		fi.err = fi.target.PartitionServer(fi.plan.Server)
	default:
		fi.err = fmt.Errorf("sim: unknown fault kind %v", fi.plan.Kind)
	}
}

// Fired reports whether the fault has been injected.
func (fi *FaultInjector) Fired() bool {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.fired
}

// Err returns the error the fault injection itself produced, if any.
func (fi *FaultInjector) Err() error {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.err
}
