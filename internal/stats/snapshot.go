package stats

// Snapshot is the subset of Counters that event-stream consumers care about.
// The event layer in internal/core and internal/machine snapshots the
// counters around each instruction or coherence transaction and attaches the
// difference to the emitted Event, so sinks see exactly which cache
// accesses, coherence damage, and interconnect traffic each event caused
// without the hot path maintaining any per-event state of its own.
type Snapshot struct {
	L1Accesses, L1Hits uint64
	L2Accesses, L2Hits uint64
	L3Accesses, L3Hits uint64
	DirAccesses        uint64
	DRAMAccesses       uint64

	Invalidations uint64
	Downgrades    uint64

	Msgs             [NumMsgTypes]uint64
	NoCFlitHops      uint64
	IntersocketFlits uint64

	WardAccesses      uint64
	ReconciledBlocks  uint64
	ReconciledSectors uint64
}

// SnapInto writes the current values of the snapshot-tracked counters
// into s. Together with DeltaInto it is the event layer's whole snapshot
// API: both write through pointers, so an emitter keeps its "before"
// point in a field or stack slot it owns and writes the delta straight
// into the event, with no Snapshot value returned or copied.
func (c *Counters) SnapInto(s *Snapshot) {
	s.L1Accesses, s.L1Hits = c.L1Accesses, c.L1Hits
	s.L2Accesses, s.L2Hits = c.L2Accesses, c.L2Hits
	s.L3Accesses, s.L3Hits = c.L3Accesses, c.L3Hits
	s.DirAccesses = c.DirAccesses
	s.DRAMAccesses = c.DRAMAccesses
	s.Invalidations = c.Invalidations
	s.Downgrades = c.Downgrades
	s.Msgs = c.Msgs
	s.NoCFlitHops = c.NoCFlitHops
	s.IntersocketFlits = c.IntersocketFlits
	s.WardAccesses = c.WardAccesses
	s.ReconciledBlocks = c.ReconciledBlocks
	s.ReconciledSectors = c.ReconciledSectors
}

// DeltaInto writes the counters' growth since before into d: the current
// values minus before, field by field. The counters only ever increase,
// so with before taken by SnapInto every field is a true event count. d
// may be before itself.
func (c *Counters) DeltaInto(d, before *Snapshot) {
	d.L1Accesses = c.L1Accesses - before.L1Accesses
	d.L1Hits = c.L1Hits - before.L1Hits
	d.L2Accesses = c.L2Accesses - before.L2Accesses
	d.L2Hits = c.L2Hits - before.L2Hits
	d.L3Accesses = c.L3Accesses - before.L3Accesses
	d.L3Hits = c.L3Hits - before.L3Hits
	d.DirAccesses = c.DirAccesses - before.DirAccesses
	d.DRAMAccesses = c.DRAMAccesses - before.DRAMAccesses
	d.Invalidations = c.Invalidations - before.Invalidations
	d.Downgrades = c.Downgrades - before.Downgrades
	for i := range d.Msgs {
		d.Msgs[i] = c.Msgs[i] - before.Msgs[i]
	}
	d.NoCFlitHops = c.NoCFlitHops - before.NoCFlitHops
	d.IntersocketFlits = c.IntersocketFlits - before.IntersocketFlits
	d.WardAccesses = c.WardAccesses - before.WardAccesses
	d.ReconciledBlocks = c.ReconciledBlocks - before.ReconciledBlocks
	d.ReconciledSectors = c.ReconciledSectors - before.ReconciledSectors
}

// TotalMsgs sums the snapshot's message counts across all types.
func (s Snapshot) TotalMsgs() uint64 {
	var n uint64
	for _, v := range s.Msgs {
		n += v
	}
	return n
}

// IsZero reports whether the snapshot records no activity at all.
func (s Snapshot) IsZero() bool { return s == Snapshot{} }
