package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"iqpaths/internal/live/testbed"
	"iqpaths/internal/stream"
)

// Workload shapes. Each is documented, with why it was chosen, in
// README.md and BENCHMARK.json.
const (
	// bulk: GridFTP-style striping, a closed loop of large packets.
	bulkStreams    = 4
	bulkPaths      = 2
	bulkPacketBits = 8000 * 8
	bulkBacklog    = 512 // packets each stream is kept topped to
	bulkSynthMbps  = 10000

	// fanout: SmartPointer-style many small streams, an open loop.
	fanoutStreams    = 5000
	fanoutPacketBits = 256 * 8
	fanoutMbps       = 30.0
	fanoutSynthMbps  = 1000

	// fig8: the paper's Fig. 8 asymmetry over shaped relays. PGOS sends
	// best effort round-robin over both paths, so half of it lands on
	// path B (3-9 Mbit/s available). At 4 Mbit/s B stays below its
	// trough and the guaranteed p99 is steady run to run. From 16 Mbit/s
	// B is overrun: its RUDP window blocks and guaranteed packets mapped
	// to it can wait in the scheduler for seconds; at 20 Mbit/s path A
	// also holds a standing queue and the p99 flips between about 0.13 s
	// and 1.2 s from run to run.
	fig8PacketBits = 1500 * 8
	fig8Mbps       = 12.0
	fig8BEMbps     = 4.0
)

func bulkConfig() *liveConfig {
	specs := make([]stream.Spec, bulkStreams)
	idx := make([]int, bulkStreams)
	for i := range specs {
		specs[i] = stream.Spec{Name: fmt.Sprintf("bulk%d", i), Kind: stream.BestEffort, PacketBits: bulkPacketBits}
		idx[i] = i
	}
	return &liveConfig{
		specs:       specs,
		paths:       bulkPaths,
		synthMbps:   bulkSynthMbps,
		pctlP:       0.9,
		setups:      9,
		sampleEvery: 32,
		newGen: func(*rand.Rand) generator {
			return &topUp{streams: idx, bits: bulkPacketBits, backlog: bulkBacklog}
		},
	}
}

// fanoutConfig mirrors BenchmarkScaleLive's mix: four in five streams
// guaranteed at P=0.95 for their mean rate, one in five best-effort.
func fanoutConfig() *liveConfig {
	perStream := fanoutMbps / fanoutStreams
	specs := make([]stream.Spec, fanoutStreams)
	for i := range specs {
		if i%5 == 4 {
			specs[i] = stream.Spec{Name: fmt.Sprintf("be%d", i), Kind: stream.BestEffort, PacketBits: fanoutPacketBits}
			continue
		}
		specs[i] = stream.Spec{
			Name: fmt.Sprintf("g%d", i), Kind: stream.Probabilistic,
			RequiredMbps: perStream, Probability: 0.95, PacketBits: fanoutPacketBits,
		}
	}
	return &liveConfig{
		specs:       specs,
		paths:       runtime.GOMAXPROCS(0),
		sharded:     true,
		synthMbps:   fanoutSynthMbps,
		pctlP:       0.95,
		setups:      9,
		sampleEvery: 2,
		newGen: func(rng *rand.Rand) generator {
			return &poisson{rng: rng, streams: fanoutStreams, bits: fanoutPacketBits,
				perSec: fanoutMbps * 1e6 / fanoutPacketBits}
		},
	}
}

// fig8Config runs two CBR streams at seeded phases: the guaranteed one
// at P=0.9 and a best-effort one beside it.
func fig8Config() *liveConfig {
	a, b := testbed.Fig8Shapes()
	return &liveConfig{
		specs: []stream.Spec{
			{Name: "guaranteed", Kind: stream.Probabilistic, RequiredMbps: fig8Mbps, Probability: 0.9, PacketBits: fig8PacketBits},
			{Name: "best-effort", Kind: stream.BestEffort, PacketBits: fig8PacketBits},
		},
		paths:       2,
		shapes:      []testbed.LinkShape{a, b},
		probe:       true,
		pctlP:       0.9,
		setups:      3,
		sampleEvery: 1,
		newGen: func(rng *rand.Rand) generator {
			return &both{
				&cbr{rng: rng, stream: 0, bits: fig8PacketBits, perSec: fig8Mbps * 1e6 / fig8PacketBits},
				&cbr{rng: rng, stream: 1, bits: fig8PacketBits, perSec: fig8BEMbps * 1e6 / fig8PacketBits},
			}
		},
	}
}

// topUp is a closed loop: each tick it refills every stream's backlog
// to a fixed depth, so a slow pipeline receives less load. A packet is
// due when it is offered.
type topUp struct {
	streams []int
	bits    float64
	backlog int
}

func (g *topUp) step(b *liveBench, now int64) {
	for _, i := range g.streams {
		for k := b.drv.Backlog(i); k < g.backlog; k++ {
			b.offer(i, g.bits, now)
		}
	}
}

// poisson is an open loop of seeded Poisson arrivals spread uniformly
// over streams — the superposition of one Poisson process per stream.
// Each packet is due at its arrival time, whenever the tick offers it.
type poisson struct {
	rng     *rand.Rand
	streams int
	bits    float64
	perSec  float64
	next    int64
}

func (g *poisson) step(b *liveBench, now int64) {
	if g.next == 0 {
		g.next = now
	}
	for g.next <= now {
		b.offer(g.rng.Intn(g.streams), g.bits, g.next)
		g.next += int64(g.rng.ExpFloat64() / g.perSec * 1e9)
	}
}

// cbr is an open loop of one stream at a constant rate, starting at a
// seeded phase.
type cbr struct {
	rng    *rand.Rand
	stream int
	bits   float64
	perSec float64
	next   float64
}

func (g *cbr) step(b *liveBench, now int64) {
	gap := 1e9 / g.perSec
	if g.next == 0 {
		g.next = float64(now) + g.rng.Float64()*gap
	}
	for int64(g.next) <= now {
		b.offer(g.stream, g.bits, int64(g.next))
		g.next += gap
	}
}

// both runs two generators each tick.
type both [2]generator

func (g *both) step(b *liveBench, now int64) {
	g[0].step(b, now)
	g[1].step(b, now)
}
