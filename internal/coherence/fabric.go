package coherence

import (
	"math/bits"

	"warden/internal/mem"
	"warden/internal/stats"
	"warden/internal/topology"
)

// Fabric models the interconnect: it charges latency and records traffic for
// every protocol message. On-chip messages pay a hop-count × hop-latency
// cost; messages whose endpoints are on different sockets additionally pay
// the (much larger) intersocket latency, which is what makes coherence
// increasingly expensive on multi-socket and disaggregated machines (§7.3).
//
// The fabric keeps only the parameters it uses, with the address and core
// maps precomputed: a message costs no division beyond the home socket's
// modulo by the socket count.
type Fabric struct {
	ctr          *stats.Counters
	flitsPerData uint64
	hops         uint64 // average on-chip hops per message
	onChip       uint64 // latency of one on-chip traversal
	interSocket  uint64 // extra latency of a socket crossing
	blockShift   uint   // log2(block size)
	sockets      uint64 // socket count (blocks interleave across them)
	socketOf     []int  // core -> socket
}

// NewFabric returns a fabric for the given machine, recording traffic into
// ctr.
func NewFabric(cfg topology.Config, ctr *stats.Counters) *Fabric {
	f := &Fabric{
		ctr: ctr,
		// A 16-byte flit link: a 64-byte block takes 4 data flits plus a
		// header.
		flitsPerData: cfg.BlockSize/16 + 1,
		hops:         cfg.AvgNoCHops,
		onChip:       cfg.AvgNoCHops * cfg.NoCHopLatency,
		interSocket:  cfg.InterSocketLatency,
		blockShift:   uint(bits.TrailingZeros64(cfg.BlockSize)),
		sockets:      uint64(cfg.Sockets),
		socketOf:     make([]int, cfg.Cores()),
	}
	for c := range f.socketOf {
		f.socketOf[c] = cfg.SocketOf(c)
	}
	return f
}

func (f *Fabric) send(t stats.MsgType, fromSocket, toSocket int) uint64 {
	flits := uint64(1)
	if t.Carries() {
		flits = f.flitsPerData
	}
	return f.sendFlits(t, fromSocket, toSocket, flits)
}

func (f *Fabric) sendFlits(t stats.MsgType, fromSocket, toSocket int, flits uint64) uint64 {
	crossed := fromSocket != toSocket
	f.ctr.Message(t, f.hops, crossed, flits)
	lat := f.onChip
	if crossed {
		lat += f.interSocket
	}
	return lat
}

// FlushToHome sends a reconciliation flush carrying only the block's dirty
// sectors (§6.1: "any sector of a flushed cache block with the write flag
// set is written back"), so sparse writers move only what they wrote.
func (f *Fabric) FlushToHome(core int, block mem.Addr, dirtyBytes uint64) uint64 {
	flits := 1 + (dirtyBytes+15)/16
	return f.sendFlits(stats.ReconcileFlush, f.socketOf[core], f.HomeSocket(block), flits)
}

// CoreToHome sends a request from core to the home directory of block and
// returns its latency.
func (f *Fabric) CoreToHome(t stats.MsgType, core int, block mem.Addr) uint64 {
	return f.send(t, f.socketOf[core], f.HomeSocket(block))
}

// HomeToCore sends a response or forwarded request from block's home
// directory to core and returns its latency.
func (f *Fabric) HomeToCore(t stats.MsgType, block mem.Addr, core int) uint64 {
	return f.send(t, f.HomeSocket(block), f.socketOf[core])
}

// CoreToCore sends a cache-to-cache message (e.g. the data response to a
// Fwd-GetS) and returns its latency.
func (f *Fabric) CoreToCore(t stats.MsgType, from, to int) uint64 {
	return f.send(t, f.socketOf[from], f.socketOf[to])
}

// HomeSocket returns the home socket of block (exposed for protocol code):
// topology.Config.HomeSocket, with the block division as a shift.
func (f *Fabric) HomeSocket(block mem.Addr) int {
	return int((uint64(block) >> f.blockShift) % f.sockets)
}
