package main

import (
	"fmt"
	"time"

	"warden/internal/core"
	"warden/internal/energy"
	"warden/internal/hlpl"
	"warden/internal/machine"
	"warden/internal/stats"
)

// cellRun is one executed cell: its simulated measurements (the fields of
// the harness's bench.Result) plus the host time of each stage.
type cellRun struct {
	cell
	cycles   uint64
	counters stats.Counters
	energy   energy.Breakdown
	forks    uint64
	steals   uint64

	build  time.Duration // machine.New
	inputs time.Duration // input generation and Prepare
	sim    time.Duration // hlpl Run
	verify time.Duration // Verify and the energy model
	err    error
}

// setup is the cell's set-up time: building the machine and its inputs.
func (r *cellRun) setup() time.Duration { return r.build + r.inputs }

// latency is the cell's host latency: set-up, simulation and verification.
func (r *cellRun) latency() time.Duration { return r.setup() + r.sim + r.verify }

// runCell executes one cell the way the harness's bench.RunOne does (build
// the machine, generate and load inputs, run the root task on the hlpl
// runtime, verify, evaluate energy) and times each stage. attach, when
// non-nil, builds an event sink for the fresh machine; it is detached
// before verification. A simulator panic is reported as the cell's error.
func runCell(c cell, attach func(*machine.Machine) core.Sink) (r cellRun) {
	r.cell = c
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("%s on %s: panic: %v", c, c.cfg.Name, p)
		}
	}()
	t0 := time.Now()
	m := machine.New(c.cfg, c.proto)
	t1 := time.Now()
	if attach != nil {
		m.System().SetSink(attach(m))
	}
	w := c.entry.New(c.size)
	if w.Prepare != nil {
		w.Prepare(m)
	}
	t2 := time.Now()
	rt := hlpl.New(m, hlpl.DefaultOptions())
	cycles, err := rt.Run(w.Root)
	m.System().SetSink(nil)
	t3 := time.Now()
	if err != nil {
		r.err = fmt.Errorf("%s on %s: %w", c, c.cfg.Name, err)
	} else if verr := w.Verify(m); verr != nil {
		r.err = fmt.Errorf("%s on %s: verification failed: %w", c, c.cfg.Name, verr)
	}
	r.cycles = cycles
	r.counters = *m.Counters()
	r.energy = energy.Default(c.cfg).Evaluate(&r.counters, cycles, c.cfg)
	r.forks, r.steals = rt.Forks, rt.Steals
	t4 := time.Now()
	r.build, r.inputs, r.sim, r.verify = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	return r
}
