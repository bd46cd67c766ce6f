package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// schedCursor walks one thread's program: s is the current segment and n
// the ops it has posted.
type schedCursor struct {
	segs []spinSeg
	s, n int
}

// next returns the value of the current segment's next op, or false when
// the segment is over. A watching segment reads shared only right after a
// global op, the thread's serialized position; after a LocalOp the engine
// may run the thread ahead of that position (see SetRunAhead), so code
// there must not read what other threads write.
func (c *schedCursor) next(shared uint64) (uint64, bool) {
	seg := c.segs[c.s]
	if !seg.forever && c.n == len(seg.ops) {
		return 0, false
	}
	if seg.watch && c.n > 0 && seg.ops[(c.n-1)%len(seg.ops)]&localBit == 0 && shared%5 == 0 {
		return 0, false
	}
	c.n++
	return seg.ops[(c.n-1)%len(seg.ops)], true
}

// schedEvent is one executed op: the thread, its clock, the op's advance,
// whether it is a LocalOp, and the lease the op ran under.
type schedEvent struct {
	tid      int
	now, adv uint64
	local    bool
	leaseEnd uint64
}

// schedRun is everything a run exposes: the op history, every thread's
// clock at the end, the global clock and the error text.
type schedRun struct {
	log    []schedEvent
	clocks []uint64
	final  uint64
	err    string
}

// runScheduled runs prog on the engine, segment by segment through Call
// or Spin, with local-op run-ahead on or off. Only global ops bump the
// shared counter.
func runScheduled(prog [][]spinSeg, maxCycles uint64, runAhead bool) (r schedRun) {
	var shared uint64
	e := New(len(prog), func(t *Thread, op Op) uint64 {
		v, adv := execProgOp(op)
		local := v&localBit != 0
		r.log = append(r.log, schedEvent{t.id, t.now, adv, local, t.leaseEnd})
		if !local {
			shared += adv + uint64(t.id) + 1
		}
		return adv
	})
	e.MaxCycles = maxCycles
	e.SetRunAhead(runAhead)
	for id, segs := range prog {
		c := &schedCursor{segs: segs}
		e.SetBody(id, func(t *Thread) {
			for ; c.s < len(c.segs); c.s, c.n = c.s+1, 0 {
				if c.segs[c.s].spin {
					t.Spin(func() Op {
						if v, ok := c.next(shared); ok {
							return progOp(v)
						}
						return nil
					})
					continue
				}
				for v, ok := c.next(shared); ok; v, ok = c.next(shared) {
					t.Call(progOp(v))
				}
			}
		})
	}
	final, err := e.Run()
	r.final = final
	if err != nil {
		r.err = err.Error()
	}
	for _, t := range e.threads {
		r.clocks = append(r.clocks, t.now)
	}
	return r
}

// referenceRun runs prog with a plain loop: scan the live threads for the
// smallest (clock, id), stop if its clock is past the guard, else execute
// its op and decide its next one. The lease an op runs under is the first
// clock at which its thread no longer precedes every other live thread,
// capped one past the guard.
func referenceRun(prog [][]spinSeg, maxCycles uint64) (r schedRun) {
	guard := uint64(clockCeiling)
	if maxCycles > 0 && maxCycles < guard {
		guard = maxCycles
	}
	var shared uint64
	n := len(prog)
	r.clocks = make([]uint64, n)
	pending := make([]uint64, n)
	live := make([]bool, n)
	cursors := make([]schedCursor, n)
	advance := func(id int) {
		c := &cursors[id]
		for ; c.s < len(c.segs); c.s, c.n = c.s+1, 0 {
			if adv, ok := c.next(shared); ok {
				pending[id], live[id] = adv, true
				return
			}
		}
		live[id] = false
		r.final = max(r.final, r.clocks[id])
	}
	for id := range prog {
		cursors[id].segs = prog[id]
		advance(id)
	}
	for {
		u := -1
		for id := range live {
			if live[id] && (u < 0 || r.clocks[id] < r.clocks[u]) {
				u = id
			}
		}
		if u < 0 {
			return r
		}
		now := r.clocks[u]
		if now > guard {
			r.final = now
			r.err = fmt.Sprintf("%v: thread %d at cycle %d, pending %T", ErrMaxCycles, u, now, progOp(pending[u]))
			return r
		}
		lease := guard + 1
		for id := range live {
			if live[id] && id != u {
				b := r.clocks[id]
				if u < id {
					b++
				}
				lease = min(lease, b)
			}
		}
		adv, local := pending[u]&^localBit, pending[u]&localBit != 0
		r.log = append(r.log, schedEvent{u, now, adv, local, lease})
		if !local {
			shared += adv + uint64(u) + 1
		}
		r.clocks[u] = now + adv
		advance(u)
	}
}

// randomSchedProgram draws a program of 1–40 threads (every third seed
// one of 3, 5, 24 or 33, so padding leaves are in play) mixing Spin and
// Call segments, global ops and LocalOps, zero-cycle ops and clock ties,
// and threads that post no op or exit early. Every fourth seed sets a
// small MaxCycles and gives some threads a final segment that never ends.
func randomSchedProgram(seed int) (prog [][]spinSeg, maxCycles uint64) {
	rng := rand.New(rand.NewSource(int64(seed)))
	n := 1 + rng.Intn(40)
	if seed%3 == 0 {
		n = []int{3, 5, 24, 33}[seed/3%4]
	}
	if seed%4 == 3 {
		maxCycles = 1 + uint64(rng.Intn(300))
	}
	advances := []uint64{0, 0, 1, 1, 2, 3, 7, 40}
	prog = make([][]spinSeg, n)
	for id := range prog {
		for s := rng.Intn(4); s >= 0; s-- {
			seg := spinSeg{spin: rng.Intn(2) == 0, watch: rng.Intn(4) == 0}
			for k := rng.Intn(12); k > 0; k-- {
				v := advances[rng.Intn(len(advances))]
				if rng.Intn(3) == 0 {
					v |= localBit
				}
				seg.ops = append(seg.ops, v)
			}
			prog[id] = append(prog[id], seg)
		}
		if maxCycles > 0 && rng.Intn(3) == 0 {
			runaway := spinSeg{spin: rng.Intn(2) == 0, forever: true, ops: []uint64{1 + uint64(rng.Intn(40))}}
			if rng.Intn(2) == 0 {
				runaway.ops[0] |= localBit
			}
			prog[id] = append(prog[id], runaway)
		}
	}
	return prog, maxCycles
}

// runAheadView is what local-op run-ahead must keep of a run: each
// thread's own ops in order, then the global ops in serialized order, and
// the clocks, global clock and error. It drops the leases: under run-ahead
// the other threads wait at their next global op rather than their next
// op, so a lease can be longer, and what counts is the global order.
func (r schedRun) runAheadView() schedRun {
	v := r
	v.log = nil
	for tid := range r.clocks {
		for _, ev := range r.log {
			if ev.tid == tid {
				ev.leaseEnd = 0
				v.log = append(v.log, ev)
			}
		}
	}
	for _, ev := range r.log {
		if !ev.local {
			ev.leaseEnd = 0
			v.log = append(v.log, ev)
		}
	}
	return v
}

// TestSchedulerMatchesReferenceLoop: on random programs the engine must
// execute exactly the ops of a linear-scan smallest-(clock, id) loop, at
// the same clocks, under the same leases (a lease too short costs
// switches, one too long breaks the order), and end with the same clocks,
// global clock and cycle-guard error. With run-ahead on, LocalOps run
// past the lease, so only the reference loop's runAheadView must match:
// every thread's op sequence, the order of the global ops, the clocks and
// the error.
func TestSchedulerMatchesReferenceLoop(t *testing.T) {
	trips, ranAhead := 0, 0
	for seed := 0; seed < 300; seed++ {
		prog, maxCycles := randomSchedProgram(seed)
		want := referenceRun(prog, maxCycles)
		got := runScheduled(prog, maxCycles, false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (%d threads, MaxCycles %d): engine run differs from the reference loop\ngot  %+v\nwant %+v",
				seed, len(prog), maxCycles, got, want)
		}
		got = runScheduled(prog, maxCycles, true)
		if g, w := got.runAheadView(), want.runAheadView(); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d (%d threads, MaxCycles %d): run-ahead run differs from the reference loop\ngot  %+v\nwant %+v",
				seed, len(prog), maxCycles, g, w)
		}
		if slices.ContainsFunc(got.log, func(ev schedEvent) bool { return ev.local && ev.now >= ev.leaseEnd }) {
			ranAhead++
		}
		if want.err != "" {
			trips++
		}
	}
	if trips < 30 || ranAhead < 200 {
		t.Fatalf("of 300 programs, %d tripped the cycle guard and %d ran a LocalOp past its lease", trips, ranAhead)
	}
}

// TestLoserTreeMatchesSort drives the tree alone, with no threads: after
// every replay of the winner's path its top must be the smallest key and
// its lease must follow from the second smallest, for padded sizes, keys
// at a saturated clock, and thread 65535 at a saturated clock, whose key
// equals the sentinel.
func TestLoserTreeMatchesSort(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 24, 33, 1 << 16} {
		rng := rand.New(rand.NewSource(int64(n)))
		p := 1
		for p < n {
			p *= 2
		}
		w := make([]uint64, 2*p)
		keys := w[p:]
		for i := range keys {
			keys[i] = noKey
			if i < n {
				keys[i] = uint64(rng.Intn(8))<<keyIDBits | uint64(i)
			}
			if i == 1<<16-1 {
				keys[i] = maxKeyClock<<keyIDBits | uint64(i)
			}
		}
		keys = slices.Clone(keys)
		e := &Engine{tree: playTournament(w), guard: 1000}
		for step := 0; step < min(200, 1<<22/p); step++ {
			sorted := slices.Clone(keys)
			slices.Sort(sorted)
			if e.tree[0] != sorted[0] {
				t.Fatalf("n=%d step %d: winner %#x, want %#x", n, step, e.tree[0], sorted[0])
			}
			if sorted[0] == noKey {
				break
			}
			u := &Thread{id: int(sorted[0] & keyIDMask)}
			lease := e.guard + 1
			if len(sorted) > 1 {
				c := sorted[1]
				b := c >> keyIDBits
				if uint64(u.id) < c&keyIDMask {
					b++
				}
				lease = min(lease, b)
			}
			if got := e.leaseEnd(u); got != lease {
				t.Fatalf("n=%d step %d: leaseEnd(%d) = %d, want %d", n, step, u.id, got, lease)
			}
			// The winner moves on, saturates, or exits.
			k := keys[u.id] + uint64(rng.Intn(5))<<keyIDBits
			switch r := rng.Intn(20); {
			case r == 0:
				k = noKey
			case r == 1:
				k = maxKeyClock<<keyIDBits | uint64(u.id)
			}
			keys[u.id] = k
			e.replay(u.id, k)
		}
	}
}
