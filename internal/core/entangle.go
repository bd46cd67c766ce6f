package core

import (
	"fmt"

	"warden/internal/cache"
	"warden/internal/coherence"
	"warden/internal/mem"
)

// Entanglement detection.
//
// The WARD contract forbids cross-thread read-after-write inside a region
// (§3.1 condition 1); the language runtime guarantees it by construction
// for disentangled programs (§4). Westrick et al.'s companion work
// ("Entanglement detection with near-zero cost", ICFP 2022, the paper's
// [89]) shows such violations can be caught dynamically. This simulator can
// do the same at the memory system level: on a W-state read it checks
// whether any *other* holder's private write mask covers the sectors being
// read — if so, the program depended on a value coherence would have
// delivered but the W state hides.
//
// The check is best-effort in one direction only: a writer whose copy was
// already flushed (eviction-time reconciliation) is no longer visible, so
// a later stale read is not flagged. No false positives occur: a flagged
// read provably overlapped a concurrent writer's unreconciled sectors.
//
// Detection is off by default (it is a debugging facility, not part of the
// protocol) and costs one pass over the block's holder set per W read.

// Violation describes one detected entangled read.
type Violation struct {
	Reader int      // core performing the read
	Writer int      // core whose unreconciled write the read overlapped
	Addr   mem.Addr // address read
	Size   int
}

// String formats the violation for diagnostics.
func (v Violation) String() string {
	return fmt.Sprintf("entangled read: core %d read %d bytes at %#x written by core %d inside a WARD region",
		v.Reader, v.Size, uint64(v.Addr), v.Writer)
}

// SetEntanglementDetection enables or disables violation detection. The
// first few violations are retained for inspection via Violations.
func (s *System) SetEntanglementDetection(on bool) { s.detectEntangle = on }

// Violations returns the retained detected violations (up to a small cap);
// the full count is in the counters' EntanglementViolations.
func (s *System) Violations() []Violation { return s.violations }

const maxRetainedViolations = 16

// checkEntangledRead flags reads of sectors concurrently written by other
// holders of a W block. Called from the W-state read path when detection
// is on.
func (s *System) checkEntangledRead(reader int, block mem.Addr, a mem.Addr, n int, e *coherence.Entry) {
	lo := uint(a-block) >> s.sectorShift
	hi := (uint(a-block) + uint(n) + 1<<s.sectorShift - 1) >> s.sectorShift
	var readMask cache.SectorMask
	readMask = readMask.Set(lo, hi-lo)

	e.Sharers.ForEach(func(h int) {
		if h == reader {
			return
		}
		wc, ok := s.wcopies[h][block]
		if !ok || !wc.mask.Overlaps(readMask) {
			return
		}
		s.ctr.EntanglementViolations++
		if len(s.violations) < maxRetainedViolations {
			s.violations = append(s.violations, Violation{Reader: reader, Writer: h, Addr: a, Size: n})
		}
	})
}
