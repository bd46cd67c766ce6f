// Package trace implements a trace-driven front end for the simulator:
// textual per-thread memory traces replay through the machine without the
// HLPL runtime, which is useful for protocol exploration, regression
// reproduction, and differential debugging between MESI and WARDen. The
// Recorder in record.go writes this same format from an execution-driven
// run, closing the record→replay loop.
//
// Trace format — one event per line, '#' comments and blank lines ignored:
//
//	<thread> R <addr> <size>            load (size 1..4096 bytes)
//	<thread> W <addr> <size> <value>    store (size 1..8; value is the integer stored)
//	<thread> W <addr> <size> <hex>      wide store (size 9..4096; <hex> is 2*size hex digits, no 0x)
//	<thread> A <addr> <size> <delta>    atomic fetch-add (size 1..8)
//	<thread> X <addr> <size> <old> <new> atomic compare-and-swap (size 1..8)
//	<thread> C <cycles>                 compute
//	<thread> F                          fence
//	<thread> B <name> <lo> <hi>         begin WARD region [lo, hi)
//	<thread> E <name>                   end (reconcile) region <name>
//	<thread> E -                        end the null region (a failed/absent begin)
//
// Numbers may be decimal or 0x-prefixed hex. Threads replay their own
// events in order; cross-thread interleaving follows simulated time, as in
// any execution-driven run. Loads and stores wider than 8 bytes execute as
// one instruction per cache block touched, exactly like machine.Ctx
// LoadBytes/StoreBytes.
//
// Region names must be unique among *open* regions: a B for a name that is
// already open, or an E for a name that is not, is a parse error. The
// matching is by file order (the order lines appear), which for recorded
// traces equals simulated-time order; hand-written traces must list a
// region's B line before its E line. "-" never opens and may always be
// ended: it denotes the null region, which a recorded run emits when an
// AddRegion failed (region table full, or MESI) but the program still
// executed the paired RemoveRegion instruction.
package trace

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"

	"warden/internal/core"
	"warden/internal/machine"
	"warden/internal/mem"
)

// maxAccessBytes bounds R/W sizes; it matches the largest bulk transfer the
// HLPL runtime issues (one page).
const maxAccessBytes = 4096

// Kind enumerates trace event types.
type Kind int

const (
	Read Kind = iota
	Write
	Atomic // fetch-add
	CAS    // compare-and-swap
	Compute
	Fence
	BeginRegion
	EndRegion
)

// NullRegionName is the region name that ends the null region.
const NullRegionName = "-"

// Event is one parsed trace line.
type Event struct {
	Thread int
	Kind   Kind
	Addr   mem.Addr
	Size   int
	Value  uint64 // store value / atomic delta / CAS expected old / compute cycles
	Value2 uint64 // CAS: new value
	Data   []byte // wide store (Size > 8): the bytes stored
	Hi     mem.Addr
	Name   string // region name for BeginRegion/EndRegion
}

// Trace is a parsed trace: per-thread event queues.
type Trace struct {
	PerThread map[int][]Event
	Events    int
}

// MaxThread returns the largest thread id used.
func (t *Trace) MaxThread() int {
	max := 0
	for id := range t.PerThread {
		if id > max {
			max = id
		}
	}
	return max
}

func parseNum(s string) (uint64, error) {
	return strconv.ParseUint(strings.TrimPrefix(s, "0x"), pickBase(s), 64)
}

func pickBase(s string) int {
	if strings.HasPrefix(s, "0x") {
		return 16
	}
	return 10
}

// Parse reads a trace from r. Errors carry the 1-based line number.
func Parse(r io.Reader) (*Trace, error) {
	t := &Trace{PerThread: make(map[int][]Event)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024) // wide stores make long lines
	lineNo := 0
	open := make(map[string]int) // open region name -> line of its B
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		fail := func(msg string) error {
			return fmt.Errorf("trace: line %d: %s: %q", lineNo, msg, line)
		}
		if len(f) < 2 {
			return nil, fail("too few fields")
		}
		tid, err := strconv.Atoi(f[0])
		if err != nil || tid < 0 {
			return nil, fail("bad thread id")
		}
		ev := Event{Thread: tid}
		need := func(n int) error {
			if len(f) != n {
				return fail(fmt.Sprintf("want %d fields", n))
			}
			return nil
		}
		num := func(s, what string) (uint64, error) {
			v, err := parseNum(s)
			if err != nil {
				return 0, fail("malformed " + what)
			}
			return v, nil
		}
		size := func(s string, max int) (int, error) {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 || n > max {
				return 0, fail(fmt.Sprintf("bad size (want 1..%d)", max))
			}
			return n, nil
		}
		switch strings.ToUpper(f[1]) {
		case "R":
			if err := need(4); err != nil {
				return nil, err
			}
			ev.Kind = Read
			a, err := num(f[2], "address")
			if err != nil {
				return nil, err
			}
			sz, err := size(f[3], maxAccessBytes)
			if err != nil {
				return nil, err
			}
			ev.Addr, ev.Size = mem.Addr(a), sz
		case "W":
			if err := need(5); err != nil {
				return nil, err
			}
			ev.Kind = Write
			a, err := num(f[2], "address")
			if err != nil {
				return nil, err
			}
			sz, err := size(f[3], maxAccessBytes)
			if err != nil {
				return nil, err
			}
			ev.Addr, ev.Size = mem.Addr(a), sz
			if sz <= 8 {
				if ev.Value, err = num(f[4], "store value"); err != nil {
					return nil, err
				}
			} else {
				data, err := hex.DecodeString(f[4])
				if err != nil || len(data) != sz {
					return nil, fail(fmt.Sprintf("malformed wide-store payload (want %d hex digits)", 2*sz))
				}
				ev.Data = data
			}
		case "A":
			if err := need(5); err != nil {
				return nil, err
			}
			ev.Kind = Atomic
			a, err := num(f[2], "address")
			if err != nil {
				return nil, err
			}
			sz, err := size(f[3], 8)
			if err != nil {
				return nil, err
			}
			v, err := num(f[4], "atomic delta")
			if err != nil {
				return nil, err
			}
			ev.Addr, ev.Size, ev.Value = mem.Addr(a), sz, v
		case "X":
			if err := need(6); err != nil {
				return nil, err
			}
			ev.Kind = CAS
			a, err := num(f[2], "address")
			if err != nil {
				return nil, err
			}
			sz, err := size(f[3], 8)
			if err != nil {
				return nil, err
			}
			old, err := num(f[4], "CAS expected value")
			if err != nil {
				return nil, err
			}
			new, err := num(f[5], "CAS new value")
			if err != nil {
				return nil, err
			}
			ev.Addr, ev.Size, ev.Value, ev.Value2 = mem.Addr(a), sz, old, new
		case "C":
			if err := need(3); err != nil {
				return nil, err
			}
			ev.Kind = Compute
			v, err := num(f[2], "compute cycles")
			if err != nil {
				return nil, err
			}
			ev.Value = v
		case "F":
			if err := need(2); err != nil {
				return nil, err
			}
			ev.Kind = Fence
		case "B":
			if err := need(5); err != nil {
				return nil, err
			}
			ev.Kind = BeginRegion
			if f[2] == NullRegionName {
				return nil, fail("region name \"-\" is reserved for the null region")
			}
			if at, dup := open[f[2]]; dup {
				return nil, fail(fmt.Sprintf("region %q already open (begun at line %d)", f[2], at))
			}
			lo, err := num(f[3], "region bound")
			if err != nil {
				return nil, err
			}
			hi, err := num(f[4], "region bound")
			if err != nil {
				return nil, err
			}
			if hi <= lo {
				return nil, fail("bad region bounds")
			}
			ev.Name, ev.Addr, ev.Hi = f[2], mem.Addr(lo), mem.Addr(hi)
			open[f[2]] = lineNo
		case "E":
			if err := need(3); err != nil {
				return nil, err
			}
			ev.Kind = EndRegion
			ev.Name = f[2]
			if ev.Name != NullRegionName {
				if _, ok := open[ev.Name]; !ok {
					return nil, fail(fmt.Sprintf("end of region %q with no matching begin", ev.Name))
				}
				delete(open, ev.Name)
			}
		default:
			return nil, fail("unknown event kind")
		}
		t.PerThread[tid] = append(t.PerThread[tid], ev)
		t.Events++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return t, nil
}

// Result summarizes one replay.
type Result struct {
	Cycles  uint64
	Machine *machine.Machine
}

// Replay runs the trace on a fresh machine with the given protocol. Region
// names are shared across threads: a region begun on one thread may be
// ended on another (the parser already rejects ends before begins in file
// order; replay re-checks at simulation time, since an unfortunate
// interleaving of hand-written traces can still end a region early).
//
// The name table and the replay error are host state every thread shares,
// and body code after a Compute or Fence may run ahead of its serialized
// turn, so every access to them goes through Ctx.Host.
func Replay(t *Trace, m *machine.Machine) (Result, error) {
	if t.MaxThread() >= m.Config().Threads() {
		return Result{}, fmt.Errorf("trace: uses thread %d but machine has %d threads",
			t.MaxThread(), m.Config().Threads())
	}
	regions := make(map[string]core.RegionID)
	var replayErr error
	bodies := make([]func(*machine.Ctx), m.Config().Threads())
	for i := range bodies {
		evs := t.PerThread[i]
		bodies[i] = func(ctx *machine.Ctx) {
			var wide []byte
			for _, ev := range evs {
				switch ev.Kind {
				case Read:
					if ev.Size <= 8 {
						ctx.Load(ev.Addr, ev.Size)
					} else {
						if cap(wide) < ev.Size {
							wide = make([]byte, maxAccessBytes)
						}
						ctx.LoadBytes(ev.Addr, wide[:ev.Size])
					}
				case Write:
					if ev.Size <= 8 {
						ctx.Store(ev.Addr, ev.Size, ev.Value)
					} else {
						ctx.StoreBytes(ev.Addr, ev.Data)
					}
				case Atomic:
					ctx.FetchAdd(ev.Addr, ev.Size, ev.Value)
				case CAS:
					ctx.CAS(ev.Addr, ev.Size, ev.Value, ev.Value2)
				case Compute:
					ctx.Compute(ev.Value)
				case Fence:
					ctx.Fence()
				case BeginRegion:
					id, _ := ctx.AddRegion(ev.Addr, ev.Hi)
					ctx.Host(func() { regions[ev.Name] = id })
				case EndRegion:
					if ev.Name == NullRegionName {
						ctx.RemoveRegion(core.NullRegion)
						continue
					}
					var id core.RegionID
					ok := false
					ctx.Host(func() {
						if id, ok = regions[ev.Name]; ok {
							delete(regions, ev.Name)
						} else if replayErr == nil {
							replayErr = fmt.Errorf("trace: thread %d ends unknown region %q", ev.Thread, ev.Name)
						}
					})
					if !ok {
						return
					}
					ctx.RemoveRegion(id)
				}
			}
		}
	}
	cycles, err := m.Run(bodies)
	if err != nil {
		return Result{}, err
	}
	if replayErr != nil {
		return Result{}, replayErr
	}
	return Result{Cycles: cycles, Machine: m}, nil
}
