package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// span is one traced interval at a layer boundary. Packet spans share
// the packet ID; tick spans share the tick index. Times are nanoseconds
// since the run's time base.
type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace"` // "pkt" or "tick"
	ID     uint64 `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Packet-span chain: each stage is caused by the one before it.
var pktStages = []string{
	"gen.offer", "pgos.hold", "transport.queue",
	"transport.sendbatch", "transport.transit", "account.observe",
}

// tracer keeps spans and raw per-layer samples in memory; nothing is
// written until the run ends. A nil *tracer records nothing, which is
// how untraced runs pay no tracing cost.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	samples map[string][]float64
}

func newTracer() *tracer { return &tracer{samples: map[string][]float64{}} }

func (t *tracer) span(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// sample records one raw observation of a per-layer quantity.
func (t *tracer) sample(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// pktSpans records the chain of one delivered packet. stamps holds the
// stage boundaries: due, offer return, path accept, batch entry, batch
// return, sink receive, account return. A zero batch return (the sink
// received the datagram before SendBatch returned) collapses the
// sendbatch span onto the receive time.
func (t *tracer) pktSpans(id uint64, stamps [7]int64) {
	if t == nil {
		return
	}
	if stamps[4] == 0 || stamps[4] > stamps[5] {
		stamps[4] = stamps[5]
	}
	t.mu.Lock()
	for i, name := range pktStages {
		s := span{Name: name, Trace: "pkt", ID: id, Start: stamps[i], End: stamps[i+1]}
		if i > 0 {
			s.Parent = pktStages[i-1]
		}
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// quantileOf returns the q-quantile of the named samples.
func (t *tracer) quantileOf(name string, q float64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return quantile(t.samples[name], q)
}

func (t *tracer) meanOf(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return mean(t.samples[name])
}

// selfTimes returns each span name's mean self time in microseconds: the
// span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	type key struct {
		trace string
		id    uint64
		name  string
	}
	children := map[key][]span{}
	for _, s := range t.spans {
		if s.Trace == "tick" && s.Parent != "" {
			k := key{s.Trace, s.ID, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	sum := map[string]float64{}
	n := map[string]float64{}
	for _, s := range t.spans {
		self := float64(s.End - s.Start)
		if s.Trace == "tick" {
			self -= covered(s, children[key{s.Trace, s.ID, s.Name}])
		}
		sum[s.Name] += self / 1e3
		n[s.Name]++
	}
	out := map[string]float64{}
	for name, v := range sum {
		out[name] = v / n[name]
	}
	return out
}

// covered returns how many nanoseconds of parent the children's union
// covers.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return float64(total)
}

// writeSpans writes the spans as JSON lines, preceded by the run record.
func (t *tracer) writeSpans(path string, record map[string]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"record": record}); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
