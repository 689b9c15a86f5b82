package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"iqpaths/internal/experiment"
	"iqpaths/internal/live"
	"iqpaths/internal/monitor"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
)

// A wrapped matrix arm must render the same rows as its stock arm,
// apart from the arm name.
func TestWrappedArmRendersStockRows(t *testing.T) {
	small := func(arms []string) experiment.Matrix {
		m := experiment.DefaultMatrix()
		m.Arms = arms
		m.Bands = m.Bands[3:] // congested: PGOS remaps and violates there
		m.Seeds = []int64{7}
		m.WarmupSec, m.DurationSec = 3, 3
		return m
	}
	stock, err := experiment.RunMatrix(small(experiment.DefaultMatrix().Arms))
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := experiment.RunMatrix(small(wrappedMatrix().Arms))
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := experiment.RenderMatrix(&want, stock, true); err != nil {
		t.Fatal(err)
	}
	got, err := renderStock(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if got != want.String() {
		t.Fatalf("wrapped arms render differently:\n%s\nstock:\n%s", got, want.String())
	}
	for _, r := range wrapped.Rows {
		if !strings.HasPrefix(r.Arm, simArmPrefix) {
			t.Fatalf("row arm %q is not a wrapped arm", r.Arm)
		}
	}
}

// The full wrapped grid for a golden seed reproduces the committed
// golden byte for byte.
func TestWrappedGridMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid")
	}
	m := wrappedMatrix()
	m.Seeds = []int64{1}
	res, err := experiment.RunMatrix(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := renderStock(res)
	if err != nil {
		t.Fatal(err)
	}
	want, err := goldenMatrix(1)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("wrapped grid for seed 1 differs from matrix_seed1.golden")
	}
}

// capturePath accepts up to room packets and records their IDs.
type capturePath struct {
	ids  []uint64
	room int
}

func (p *capturePath) ID() int            { return 0 }
func (p *capturePath) Name() string       { return "capture" }
func (p *capturePath) QueuedPackets() int { return 0 }
func (p *capturePath) Send(pkt *simnet.Packet) bool {
	if len(p.ids) >= p.room {
		return false
	}
	p.ids = append(p.ids, pkt.ID)
	simnet.ReleasePacket(pkt)
	return true
}

// The benchmark is the only caller of Offer, so the k-th Offer call's
// packet carries ID k — refused offers included — on both drivers.
func TestOfferIndexIsPacketID(t *testing.T) {
	warmMon := func() *monitor.PathMonitor {
		m := monitor.New("capture", monWindow, monWarm)
		for k := 0; k < monWindow; k++ {
			m.ObserveBandwidth(1000)
		}
		return m
	}
	spec := stream.Spec{Name: "s", Kind: stream.BestEffort, QueueLimit: 3}
	cfg := live.Config{TickSeconds: tickSec, TwSec: twSec, Clock: live.NewFakeClock()}

	p := &capturePath{room: 1 << 20}
	d := live.NewDriver(cfg, []stream.Spec{spec}, []sched.PathService{p}, []*monitor.PathMonitor{warmMon()})
	var accepted []uint64
	for k := uint64(1); k <= 10; k++ {
		if d.Offer(0, 8000) {
			accepted = append(accepted, k)
		}
	}
	for i := 0; i < 10; i++ {
		d.Step()
	}
	if len(accepted) != 3 || !equalIDs(p.ids, accepted) {
		t.Fatalf("Driver: path saw IDs %v, offers accepted at indices %v", p.ids, accepted)
	}

	sp := &capturePath{room: 1 << 20}
	sd := live.NewShardedDriver(live.ShardedConfig{Config: cfg},
		[]live.ShardDomain{{Paths: []sched.PathService{sp}, Mons: []*monitor.PathMonitor{warmMon()}}})
	defer sd.Stop()
	sd.AddStream(stream.Spec{Name: "s", Kind: stream.BestEffort})
	sd.Step()
	for k := 0; k < 5; k++ {
		sd.Offer(0, 8000)
	}
	for i := 0; i < 10; i++ {
		sd.Step()
	}
	if !equalIDs(sp.ids, []uint64{1, 2, 3, 4, 5}) {
		t.Fatalf("ShardedDriver: path saw IDs %v, want 1..5", sp.ids)
	}
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// knownGen offers perTick packets each tick of the measured interval,
// each due a distinct, known time before it is offered.
type knownGen struct {
	perTick int
	due     map[uint64]int64 // offer index → due time
	n       uint64
}

func (g *knownGen) step(b *liveBench, now int64) {
	if !b.inInterval(now) {
		return
	}
	for k := 0; k < g.perTick; k++ {
		g.n++
		due := now - int64(g.n)*1000
		g.due[g.n] = due
		b.offer(0, 1000*8, due)
	}
}

// On a short single-path run the path wrapper and the sink's FIFO
// matching recover every packet's ID and due time.
func TestFIFOMatchingRecoversIDsAndDueTimes(t *testing.T) {
	gen := &knownGen{perTick: 3, due: map[uint64]int64{}}
	cfg := &liveConfig{
		specs:       []stream.Spec{{Name: "s", Kind: stream.BestEffort, PacketBits: 8000}},
		paths:       1,
		synthMbps:   1000,
		pctlP:       0.9,
		setups:      1,
		sampleEvery: 1,
		newGen:      func(*rand.Rand) generator { return gen },
	}
	tr := newTracer()
	chk := &checks{}
	out, err := runLive(cfg, 1, 0.3, tr, chk)
	if err != nil {
		t.Fatal(err)
	}
	if n, fails := chk.failures(); n > 0 {
		t.Fatalf("%d check failures: %v", n, fails)
	}
	if out.failed != 0 || out.attempted != gen.n || gen.n == 0 {
		t.Fatalf("attempted %d failed %d, generator offered %d", out.attempted, out.failed, gen.n)
	}
	seen := map[uint64]int64{}
	for _, s := range tr.spans {
		if s.Trace == "pkt" && s.Name == "gen.offer" {
			seen[s.ID] = s.Start
		}
	}
	if len(seen) != len(gen.due) {
		t.Fatalf("sink matched %d packets, generator offered %d", len(seen), len(gen.due))
	}
	for id, due := range gen.due {
		if seen[id] != due {
			t.Fatalf("packet %d: sink matched due %d, generator set %d", id, seen[id], due)
		}
	}
}

// cpuShares decodes the layer labels of a real CPU profile.
func TestCPUSharesSeesLabels(t *testing.T) {
	prof := startCPUProfile()
	if prof == nil {
		t.Skip("a CPU profile is already running")
	}
	pprof.Do(context.Background(), pprof.Labels("layer", "busy"), func(context.Context) {
		x := 0
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			x++
		}
		_ = x
	})
	shares, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	if shares["busy"] < 0.5 {
		t.Fatalf("busy share %.2f, want most of the profile (shares %v)", shares["busy"], shares)
	}
}

// BENCHMARK.json names the workloads and lists exactly the metrics this
// program reports, with the same units and directions.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile(repoFile("BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != "bulk,fanout,fig8,matrix" {
		t.Fatalf("workloads %v", names)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Fatalf("%s[%d]: BENCHMARK.json has %+v, program reports %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}
