package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"iqpaths/internal/experiment"
	"iqpaths/internal/sched"
)

// simArmPrefix names the benchmark's wrapped copies of the stock
// scheduler arms in the sched registry.
const simArmPrefix = "perfbench-"

// matrixSeeds are the grids one pass simulates: the three golden seeds,
// each checked against its committed golden, then the workload seed's
// own grid twice, checked byte-identical. The fixed grids keep the work
// of a pass nearly the same whatever the seed.
func matrixSeeds(seed int64) []int64 { return []int64{1, 7, 42, seed, seed} }

// matrixMeasuredSec is the measured window of each grid cell, the
// experiment.Matrix default DurationSec; AggMbps is averaged over it.
const matrixMeasuredSec = 10

// matrixSetups is how many times set-up runs; setup_s is their median.
const matrixSetups = 9

// goldenSeeds have committed matrix goldens to compare against.
var goldenSeeds = map[int64]bool{1: true, 7: true, 42: true}

// simRec accumulates what the wrapped arms observe. RunMatrix runs its
// cells one after another on one goroutine, so the wrappers write it
// without locking; it is reset before each use.
var simRec simRecorder

type simRecorder struct {
	ticks      uint64
	virtualSec float64
	schedNs    int64     // time inside the stock Tick
	restNs     int64     // time between one Tick's return and the next entry
	loopUs     []float64 // entry-to-entry time of consecutive Ticks
	remapUs    []float64
}

// simArm wraps a stock arm: it times each Tick and the gap between
// Ticks, which the simulator, sources and harness fill.
type simArm struct {
	inner           sched.Scheduler
	tickSec         float64
	lastIn, lastOut time.Time
}

func (a *simArm) Name() string { return a.inner.Name() }

func (a *simArm) Tick(now int64) {
	in := time.Now()
	if !a.lastIn.IsZero() {
		simRec.loopUs = append(simRec.loopUs, float64(in.Sub(a.lastIn))/1e3)
		simRec.restNs += int64(in.Sub(a.lastOut))
	}
	a.inner.Tick(now)
	out := time.Now()
	simRec.schedNs += int64(out.Sub(in))
	simRec.ticks++
	simRec.virtualSec += a.tickSec
	a.lastIn, a.lastOut = in, out
}

func init() {
	for _, arm := range experiment.DefaultMatrix().Arms {
		arm := arm
		sched.Register(simArmPrefix+arm, func(cfg sched.BuildConfig) (sched.Scheduler, error) {
			next := cfg.OnRemap
			cfg.OnRemap = func(latencySec float64, committed bool) {
				simRec.remapUs = append(simRec.remapUs, latencySec*1e6)
				if next != nil {
					next(latencySec, committed)
				}
			}
			s, err := sched.Build(arm, cfg)
			if err != nil {
				return nil, err
			}
			return &simArm{inner: s, tickSec: cfg.TickSeconds}, nil
		})
	}
}

// wrappedMatrix is the default grid with every arm replaced by its
// wrapped copy.
func wrappedMatrix() experiment.Matrix {
	m := experiment.DefaultMatrix()
	for i, arm := range m.Arms {
		m.Arms[i] = simArmPrefix + arm
	}
	return m
}

// renderStock renders res as CSV with the wrapped arms' names restored,
// the form the committed goldens use.
func renderStock(res *experiment.MatrixResult) (string, error) {
	rows := make([]experiment.CellRow, len(res.Rows))
	for i, r := range res.Rows {
		r.Arm = strings.TrimPrefix(r.Arm, simArmPrefix)
		rows[i] = r
	}
	var sb strings.Builder
	err := experiment.RenderMatrix(&sb, &experiment.MatrixResult{Rows: rows}, true)
	return sb.String(), err
}

// repoFile resolves a repository-relative path from the repository root
// or from the benchmark's own directory.
func repoFile(rel string) string {
	if _, err := os.Stat(rel); err == nil {
		return rel
	}
	return filepath.Join("..", rel)
}

func goldenMatrix(seed int64) (string, error) {
	b, err := os.ReadFile(repoFile(fmt.Sprintf("internal/experiment/testdata/golden/matrix_seed%d.golden", seed)))
	return string(b), err
}

// matrixSetup prepares one measured matrix run: the grid, each seed's
// scenario draws, the goldens, and one short warm-up cell per arm and
// workload so pools and code paths are warm before timing.
func matrixSetup(seed int64) (experiment.Matrix, map[int64]string, error) {
	m := wrappedMatrix()
	m.Seeds = matrixSeeds(seed)
	for _, band := range m.Bands {
		for _, s := range m.Seeds {
			experiment.DrawScenario(band, s)
		}
	}
	want := map[int64]string{}
	for _, s := range m.Seeds {
		if goldenSeeds[s] {
			g, err := goldenMatrix(s)
			if err != nil {
				return m, nil, fmt.Errorf("matrix golden: %w", err)
			}
			want[s] = g
		}
	}
	warm := wrappedMatrix()
	warm.Bands = warm.Bands[:1]
	warm.Seeds = []int64{seed}
	warm.WarmupSec, warm.DurationSec = 1, 1
	if _, err := experiment.RunMatrix(warm); err != nil {
		return m, nil, err
	}
	return m, want, nil
}

// runMatrix is the matrix workload: set-up matrixSetups times, then whole
// passes over matrixSeeds until seconds have elapsed. Every grid's CSV
// must match the golden (seeds 1, 7, 42) or the seed's first grid. Each
// end-to-end figure is the median over the grids run.
func runMatrix(seed int64, seconds float64, tr *tracer, chk *checks) (*outcome, error) {
	out := &outcome{}
	var m experiment.Matrix
	var want map[int64]string
	for k := 0; k < matrixSetups; k++ {
		start := time.Now()
		var err error
		if m, want, err = matrixSetup(seed); err != nil {
			return nil, err
		}
		out.setupTimes = append(out.setupTimes, time.Since(start).Seconds())
	}

	simRec = simRecorder{}
	var prof *cpuProfile
	if tr != nil {
		prof = startCPUProfile()
	}
	heap := startHeapSampler()
	p0 := snapProc()
	var rows []experiment.CellRow // each distinct grid once
	scored := map[int64]bool{}
	var speed, mbps, perCore, p50, p99 []float64
	var grids int
	var runErr error
	pprof.Do(context.Background(), pprof.Labels("layer", "sim"), func(context.Context) {
		for pass := 0; pass == 0 || time.Since(p0.wall).Seconds() < seconds; pass++ {
			for _, s := range m.Seeds {
				one := m
				one.Seeds = []int64{s}
				virtual0 := simRec.virtualSec
				simRec.loopUs = simRec.loopUs[:0]
				g0 := snapProc()
				res, err := experiment.RunMatrix(one)
				g1 := snapProc()
				if err != nil {
					runErr = err
					return
				}
				grids++
				csv, err := renderStock(res)
				if err != nil {
					runErr = err
					return
				}
				if prev, ok := want[s]; !ok {
					want[s] = csv
				} else if csv != prev {
					chk.fail("matrix seed %d: grid %d's CSV differs from the golden or the seed's first grid", s, grids)
				}
				iv := between(g0, g1)
				var mbit float64
				for _, r := range res.Rows {
					mbit += r.AggMbps * matrixMeasuredSec
				}
				speed = append(speed, (simRec.virtualSec-virtual0)/iv.wallSec)
				mbps = append(mbps, mbit/iv.wallSec)
				perCore = append(perCore, iv.perCore(mbit/iv.wallSec))
				p50 = append(p50, quantile(simRec.loopUs, 0.50)/1e3)
				p99 = append(p99, quantile(simRec.loopUs, 0.99)/1e3)
				out.latSamples += uint64(len(simRec.loopUs))
				out.attempted += uint64(len(res.Rows))
				if !scored[s] {
					scored[s] = true
					rows = append(rows, res.Rows...)
				}
			}
		}
	})
	p1 := snapProc()
	heapMiB := heap.stopMiB()
	var shares map[string]float64
	if prof != nil {
		var err error
		if shares, err = prof.stop(); err != nil {
			return nil, err
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	iv := between(p0, p1)

	var pgosViolated []float64
	for _, r := range rows {
		if r.Arm == simArmPrefix+sched.NamePGOS {
			pgosViolated = append(pgosViolated, r.ViolatedFrac)
		}
	}
	out.violatedFrac = mean(pgosViolated)
	out.notes = append(out.notes,
		fmt.Sprintf("sim_violated_frac %.6g (the PGOS arm's mean violated-window fraction)", out.violatedFrac),
		fmt.Sprintf("grids %d, sim_speed_x per grid %.4g", grids, speed))
	out.e2e = map[string]float64{
		"setup_s":        median(out.setupTimes),
		"delivered_mbps": median(mbps),
		"mbps_per_core":  median(perCore),
		"latency_p50_ms": median(p50),
		"latency_p99_ms": median(p99),
		"ontime_frac":    1 - out.violatedFrac,
		"heap_peak_mb":   heapMiB,
		"sim_speed_x":    median(speed),
	}
	if tr == nil {
		return out, nil
	}
	ticks := math.Max(1, float64(simRec.ticks))
	L := map[string]float64{
		"sim.sched_tick_us.mean": float64(simRec.schedNs) / 1e3 / ticks,
		"sim.remap_us.p99":       quantile(simRec.remapUs, 0.99),
		"sim.rest_tick_us.mean":  float64(simRec.restNs) / 1e3 / ticks,
		"sim.allocs_per_tick":    iv.allocs / ticks,
		"sim.gc_cpu_frac":        iv.gcCPUFrac,
	}
	for layer, share := range shares {
		L["cpu."+layer] = share
	}
	out.layer = L
	return out, nil
}
