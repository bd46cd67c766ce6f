// Conservative parallel discrete-event scheduling (PDES) for the engine.
//
// The sequential scheduler in engine.go executes every op in exact
// (clock, id) order, one coroutine live at a time. The PDES scheduler
// below spreads one simulation across host cores while producing the
// bit-identical serialized history, by splitting ops into two classes:
//
//   - LocalOp (compute, fence): touches only state owned by the issuing
//     thread. Within an epoch window [T, T+W) every thread whose next op
//     is local runs concurrently on its own host goroutine, buffering any
//     observable side effects (counters, events) privately.
//
//   - Global (everything else — loads, stores, atomics, region ops, host
//     callbacks): may touch shared simulator state (caches, directory,
//     memory, the event sink). Globals are never executed concurrently or
//     speculatively: a single goroutine drains them in exact (clock, id)
//     order at the epoch barrier, flushing buffered thread-local effects
//     ahead of each one so the shared event stream sees the sequential
//     engine's exact order.
//
// Why determinism holds: the serialized history seen by all shared state
// is ops sorted by (clock, id) — identical to the sequential engine's
// execution order. Local ops cannot observe or influence any other
// thread, so running them early (in host time) and in any host
// interleaving changes nothing they compute; their clock advances are a
// pure function of thread-private state. The window W is therefore a
// performance parameter only: any W >= 1 yields byte-identical results,
// because no shared-state op ever executes ahead of its serialized turn.
// This is stronger than classic conservative PDES (which needs W to
// lower-bound cross-thread latency) and is forced by this simulator's
// instantaneous coherence-state transitions: a load's L1 hit/miss outcome
// can be changed by another thread's store with a smaller timestamp in
// the same window, so there is no usable lookahead for shared state —
// L1 "hits" cannot be classified local without breaking bit-identity.
//
// Epoch structure (runPDES):
//
//  1. T = min (clock, id) over parked threads; H = min(T+W, MaxCycles+1).
//  2. Phase 1 (parallel): release every parked thread whose pending op is
//     local and clock < H. Each released thread executes local ops and the
//     host code between them concurrently until its next op is global, its
//     clock reaches H, or its body exits; then it parks back. The barrier
//     waits for all released threads.
//  3. Phase 2 (serial drain): repeatedly pick the parked thread u with the
//     smallest (clock, id) below H — its pending op is global by the phase
//     1 invariant — and wake it in serial mode with an inline lease bounded
//     by the smallest (clock, id) among the other parked threads (valid
//     because they are all frozen). u flushes buffered effects and executes
//     its global ops inline, interleaving any local ops, until it hits the
//     lease or H; then it parks back. Exactly one goroutine runs during the
//     drain, and globals execute in strictly ascending (clock, id) order.
//  4. When no parked thread remains below H, open the next epoch.
//
// Host-visible side effects of body code between ops follow the segment
// rule: code after a local op may run concurrently in phase 1 and must
// touch only thread-private state (or commutative atomics); code after a
// global op always runs serialized, in exact serialized order. Shared
// host state mutated from arbitrary segments goes through a global op
// (machine.Ctx.Host) to land at its exact serialized position.
package engine

import "runtime"

// PDESConfig configures the conservative epoch-window scheduler.
type PDESConfig struct {
	// Window is the epoch width W in cycles. Any value >= 1 is correct
	// (see the package comment above); larger windows amortize barrier
	// cost, smaller ones bound how far threads run ahead. Zero is treated
	// as 1.
	Window uint64

	// Local executes a LocalOp on behalf of t. It runs concurrently with
	// other threads' Local calls and with body code, so it must touch only
	// state owned by t (plus atomics). The machine layer supplies a
	// handler that writes per-thread counters and buffers events.
	Local Handler

	// Flush, if non-nil, is called in serialized context immediately
	// before each global op executes, with that op's issue (clock, id).
	// It must publish every buffered thread-local effect whose position
	// (cycle, thread) precedes or equals the bound — cycle < clock, or
	// cycle == clock && thread <= id — in (cycle, thread) order. It is
	// called once more with (^uint64(0), MaxInt) before Run returns.
	Flush func(maxCycle uint64, maxID int)
}

// SetPDES selects the conservative PDES scheduler for this engine's Run.
// Call before Run. The handler passed to New still executes every global
// op; cfg.Local executes ops marked LocalOp.
func (e *Engine) SetPDES(cfg PDESConfig) {
	if cfg.Local == nil {
		panic("engine: PDESConfig.Local handler is required")
	}
	if cfg.Window == 0 {
		cfg.Window = 1
	}
	e.pdes = &cfg
}

// pdesMsg is a running thread's report to the coordinator: a park (the
// zero flags), a body exit, or a panic.
type pdesMsg struct {
	t      *Thread
	exited bool
	panicv any
}

// launch starts t's body on its own goroutine. The wrapper reports the
// body's exit (or panic) to the coordinator, which accounts the final
// clock and surfaces panics from Run instead of deadlocking.
func (e *Engine) launch(t *Thread) {
	go func() {
		defer func() {
			e.parkc <- pdesMsg{t: t, exited: true, panicv: recover()}
		}()
		t.body(t)
	}()
}

// callPDES is Thread.Call under the PDES scheduler.
func (t *Thread) callPDES(op Op) {
	e := t.eng
	for {
		if _, local := op.(LocalOp); local {
			if t.now < t.limit {
				// Phase 1 (or serial-mode) local execution: concurrent,
				// thread-private, effects buffered by the Local handler.
				adv := e.pdes.Local(t, op)
				t.now += adv
				if p := e.probe; p != nil {
					p.note(adv)
				}
				return
			}
		} else if t.serial && t.now < t.limit &&
			(t.now < t.horizonNow || (t.now == t.horizonNow && t.id < t.horizonID)) {
			// Serial-drain inline lease: this thread's (clock, id) precedes
			// every other parked thread's and the epoch horizon, so its
			// global op is exactly the next one in serialized order.
			// now < limit <= MaxCycles+1 also preserves the cycle guard.
			if f := e.pdes.Flush; f != nil {
				f(t.now, t.id)
			}
			adv := e.handler(t, op)
			t.now += adv
			if p := e.probe; p != nil {
				p.note(adv)
			}
			return
		}
		t.parkPDES(op)
	}
}

// parkPDES hands control back and waits to be released into the next
// phase. A thread holding the serial-drain baton passes it directly to the
// next thread (the coordinator is only involved when the drain runs dry);
// everything else reports to the coordinator. The loop in callPDES
// re-dispatches the op under the refreshed limit/serial/horizon state.
func (t *Thread) parkPDES(op Op) {
	e := t.eng
	t.pending = op
	serial := t.serial
	t.serial = false
	if serial {
		// Direct handoff: this thread holds the drain baton, so it owns
		// drainHeap and may wake its successor itself — one channel
		// send per switch instead of a round trip through the
		// coordinator. Safe because after the wake this goroutine only
		// blocks on its own res channel (unbuffered, so a successor that
		// immediately picks this thread just rendezvouses here).
		e.drainHeap.push(t)
		if !e.wakeNextDrain() {
			e.parkc <- pdesMsg{t: t} // drain ran dry; close the epoch
		}
	} else {
		e.parkc <- pdesMsg{t: t}
	}
	<-t.res
	t.pending = nil
}

// wakeNextDrain picks the parked thread with the smallest (clock, id)
// below the epoch horizon, grants it the serial lease (bounded by the
// smallest (clock, id) among the threads left parked), and wakes it. It
// reports false when no thread is runnable this epoch. The caller must
// hold the drain baton: the one live serial thread as it parks, or the
// coordinator when seeding the drain or resuming it after an exit.
func (e *Engine) wakeNextDrain() bool {
	dh := &e.drainHeap
	if dh.len() == 0 || dh.a[0].now >= e.drainH {
		return false
	}
	u := dh.pop()
	// The inline global lease: the smallest (clock, id) among the threads
	// left parked — the new heap root. They are all frozen until u parks
	// back, so the lease cannot go stale.
	if dh.len() > 0 {
		u.horizonNow, u.horizonID = dh.a[0].now, dh.a[0].id
	} else {
		u.horizonNow, u.horizonID = ^uint64(0), int(^uint(0)>>1)
	}
	u.limit = e.drainH
	u.serial = true
	u.res <- struct{}{}
	return true
}

// runPDES is Run under the PDES scheduler: the epoch coordinator. It runs
// on Run's goroutine and owns all scheduling decisions; thread goroutines
// only ever run between a wake (res) and their next park (parkc).
func (e *Engine) runPDES() (uint64, error) {
	w := e.pdes.Window
	e.procs = runtime.GOMAXPROCS(0)
	e.parkc = make(chan pdesMsg, len(e.threads))

	// Startup: threads launch one at a time, in id order, and run to their
	// first op (limit 0 forces an immediate park) or exit, so exactly one
	// goroutine is live and host allocation order is deterministic —
	// identical to the sequential engine.
	var parked []*Thread
	for _, t := range e.threads {
		t.res = make(chan struct{})
		t.limit = 0
		e.launch(t)
		m := <-e.parkc
		switch {
		case m.panicv != nil:
			panic(m.panicv)
		case m.exited:
			if t.now > e.final {
				e.final = t.now
			}
		default:
			parked = append(parked, t)
		}
	}
	live := len(parked)
	finalFlush := func() {
		if f := e.pdes.Flush; f != nil {
			f(^uint64(0), int(^uint(0)>>1))
		}
	}

	for {
		if live == 0 {
			finalFlush()
			return e.final, nil
		}

		// Epoch open: find T = min (clock, id) over parked threads.
		minT := parked[0]
		for _, t := range parked[1:] {
			if clockLess(t, minT) {
				minT = t
			}
		}
		if e.MaxCycles > 0 && minT.now > e.MaxCycles {
			// Same condition and same reported clock as the sequential
			// scheduler: every op with clock <= MaxCycles has executed.
			finalFlush()
			return minT.now, maxCyclesError(minT)
		}
		h := minT.now + w
		if h < minT.now {
			h = ^uint64(0) // saturate
		}
		if e.MaxCycles > 0 && h > e.MaxCycles+1 {
			h = e.MaxCycles + 1
		}

		// Phase 1 exists only to buy host parallelism: it needs at least
		// two runnable local threads and more than one host proc to pay
		// for its per-thread release/park round trip. Otherwise skip it —
		// the serial drain executes pending local ops inline at the same
		// serialized positions (byte-identical either way; locals
		// commute), with direct handoffs instead of barrier crossings.
		runnable := 0
		for _, t := range parked {
			if _, local := t.pending.(LocalOp); local && t.now < h {
				runnable++
			}
		}
		if e.procs > 1 && runnable >= 2 {
			// Phase 1: release every thread whose pending op is local and
			// whose clock is inside the window; they run concurrently.
			released := 0
			keep := parked[:0]
			for _, t := range parked {
				if _, local := t.pending.(LocalOp); local && t.now < h {
					t.limit = h
					t.serial = false
					released++
					t.res <- struct{}{}
					continue
				}
				keep = append(keep, t)
			}
			parked = keep

			// Barrier: every released thread parks back, exits, or panics.
			var panics []pdesMsg
			for released > 0 {
				m := <-e.parkc
				released--
				switch {
				case m.panicv != nil:
					panics = append(panics, m)
				case m.exited:
					live--
					if m.t.now > e.final {
						e.final = m.t.now
					}
				default:
					parked = append(parked, m.t)
				}
			}
			if len(panics) > 0 {
				// Propagate the panic the sequential engine would hit
				// first: the one at the smallest (clock, id).
				min := panics[0]
				for _, p := range panics[1:] {
					if clockLess(p.t, min.t) {
						min = p
					}
				}
				panic(min.panicv)
			}
		}

		// Phase 2: serial drain below the horizon, smallest (clock, id)
		// first. After phase 1 every parked thread below H has a global
		// pending op; if phase 1 was skipped, the drained thread executes
		// its local ops inline (callPDES) before reaching the global one.
		// The coordinator only seeds the drain;
		// after that each parking thread wakes its successor directly, and
		// the coordinator hears back on a thread exit, a panic, or the
		// drain running dry (the baton-holder found no successor).
		e.drainH = h
		for _, t := range parked {
			e.drainHeap.push(t)
		}
		parked = parked[:0]
		for e.wakeNextDrain() {
			m := <-e.parkc
			if m.panicv != nil {
				panic(m.panicv)
			}
			if m.exited {
				live--
				if m.t.now > e.final {
					e.final = m.t.now
				}
				continue // resume the drain in the exited thread's stead
			}
			// Drain-dry park: m.t already re-parked itself into
			// drainHeap before reporting, so every thread is frozen.
			break
		}
		// Reclaim the heap into the parked slice (order is irrelevant;
		// the epoch open rescans for the minimum). Keeps the backing
		// arrays of both containers for the next epoch.
		parked = append(parked, e.drainHeap.a...)
		for i := range e.drainHeap.a {
			e.drainHeap.a[i] = nil
		}
		e.drainHeap.a = e.drainHeap.a[:0]
	}
}

// clockHeap is a binary min-heap of parked threads ordered by (now, id) —
// the PDES drain's pick order. Threads are only pushed when they park and
// popped when woken, so no decrease-key is needed.
type clockHeap struct {
	a []*Thread
}

func clockLess(x, y *Thread) bool {
	return x.now < y.now || (x.now == y.now && x.id < y.id)
}

func (h *clockHeap) len() int { return len(h.a) }

func (h *clockHeap) push(t *Thread) {
	h.a = append(h.a, t)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !clockLess(h.a[i], h.a[p]) {
			break
		}
		h.a[i], h.a[p] = h.a[p], h.a[i]
		i = p
	}
}

func (h *clockHeap) pop() *Thread {
	root := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a[last] = nil
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= len(h.a) {
			break
		}
		c := l
		if r < len(h.a) && clockLess(h.a[r], h.a[l]) {
			c = r
		}
		if !clockLess(h.a[c], h.a[i]) {
			break
		}
		h.a[i], h.a[c] = h.a[c], h.a[i]
		i = c
	}
	return root
}
