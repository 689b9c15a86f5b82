package main

import (
	"bytes"
	"encoding/json"
	"log"
	"math"
	"net/http"
	"strconv"

	"iqpaths/internal/control"
	"iqpaths/internal/monitor"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
)

// daemonAdmission exposes the control-plane admission test over HTTP for
// the sink role. The sink monitors one "path" — its own ingress — whose
// available bandwidth is the configured capacity minus the observed
// aggregate receive rate, sampled once per reporting tick. Clients ask
//
//	POST /admission/admit?name=Gold&mbps=50&p=0.9
//	POST /admission/release?name=Gold
//	GET  /admission/streams
//
// and get the control.Decision (including the best-feasible-spec upcall
// on rejection) as JSON; errors come back as {"error": ...} bodies with
// the matching status code.
//
// With -cluster N > 1 the sink runs N regional admission shards
// (stream names hash to a home shard) whose committed load replicates
// through the gossip channel served under /gossip/ — the live
// counterpart of control.ShardedAdmission's simulated deployment.
type daemonAdmission struct {
	capacity float64
	adm      *control.ShardedAdmission
	ver      int64 // publish version counter, bumped each ticker publish
}

// admissionWindow is the ingress monitor's sample window: one sample per
// second, so two minutes of history feed the CDF.
const admissionWindow = 120

func newDaemonAdmission(capacityMbps float64, shards int) *daemonAdmission {
	if shards < 1 {
		shards = 1
	}
	opt := control.AdmissionOptions{
		PreemptBestEffort: true,
		OnReject: func(d control.Decision) {
			if d.BestSpec != nil {
				log.Printf("admission: rejected %q (%s); best feasible %.2f Mbps",
					d.Spec.Name, d.Reason, d.BestSpec.RequiredMbps)
			} else {
				log.Printf("admission: rejected %q (%s)", d.Spec.Name, d.Reason)
			}
		},
	}
	mons := make([][]*monitor.PathMonitor, shards)
	for i := range mons {
		mons[i] = []*monitor.PathMonitor{monitor.New("sink", admissionWindow, 20)}
	}
	adm := control.NewShardedAdmission(opt, mons)
	for i := 0; i < adm.Shards(); i++ {
		adm.Shard(i).SetTelemetry(telemetry.Default().WithLabels("shard", strconv.Itoa(i)), nil)
	}
	return &daemonAdmission{capacity: capacityMbps, adm: adm}
}

// observe feeds one aggregate receive-rate sample (Mbps): the ingress
// path's available bandwidth is whatever the capacity leaves over. Every
// shard watches the same ingress, so each gets the sample; double
// booking is prevented by the replicated committed-load vectors, not by
// splitting the capacity.
func (d *daemonAdmission) observe(usedMbps float64) {
	avail := d.capacity - usedMbps
	if avail < 0 {
		avail = 0
	}
	for i := 0; i < d.adm.Shards(); i++ {
		d.adm.Observe(i, 0, avail)
	}
}

// publish snapshots every shard's committed load into the replication
// table (making it visible to co-located shards immediately and to
// remote daemons through /gossip/). Called from the sink's report
// ticker.
func (d *daemonAdmission) publish() {
	d.ver++
	for i := 0; i < d.adm.Shards(); i++ {
		d.adm.Publish(i, d.ver)
	}
}

func (d *daemonAdmission) register(mux *http.ServeMux) {
	mux.HandleFunc("/admission/admit", d.handleAdmit)
	mux.HandleFunc("/admission/release", d.handleRelease)
	mux.HandleFunc("/admission/streams", d.handleStreams)
}

// writeJSON encodes v before committing the status line, so a value that
// cannot be encoded answers 500 with a JSON error body instead of a
// success status followed by a truncated body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		status = http.StatusInternalServerError
		buf.Reset()
		_ = json.NewEncoder(&buf).Encode(map[string]string{"error": "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// jsonError answers a malformed or rejected request with a JSON body —
// {"error": msg} — so API clients never have to parse plain-text
// http.Error output.
func jsonError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// requireMethod guards a handler: a mismatched verb gets 405 with an
// Allow header and a JSON error body.
func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	jsonError(w, http.StatusMethodNotAllowed, "method "+r.Method+" not allowed; use "+method)
	return false
}

// parseMbps parses a requested rate, accepting only finite values above
// zero: NaN or ±Inf would poison the admission CDF arithmetic and make the
// admitted-stream listing unencodable.
func parseMbps(s string) (float64, bool) {
	mbps, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(mbps) || math.IsInf(mbps, 0) || mbps <= 0 {
		return 0, false
	}
	return mbps, true
}

// handleAdmit parses a spec from query parameters and runs the admission
// test. kind=besteffort admits unconditionally; otherwise mbps (and
// optionally p, the guarantee probability, default 0.95) describe a
// probabilistic request.
func (d *daemonAdmission) handleAdmit(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	q := r.URL.Query()
	spec := stream.Spec{Name: q.Get("name")}
	if spec.Name == "" {
		jsonError(w, http.StatusBadRequest, "missing name parameter")
		return
	}
	if q.Get("kind") == "besteffort" {
		spec.Kind = stream.BestEffort
		if q.Has("mbps") {
			mbps, ok := parseMbps(q.Get("mbps"))
			if !ok {
				jsonError(w, http.StatusBadRequest, "invalid mbps parameter (want a finite rate > 0)")
				return
			}
			spec.RequiredMbps = mbps
		}
	} else {
		mbps, ok := parseMbps(q.Get("mbps"))
		if !ok {
			jsonError(w, http.StatusBadRequest, "missing or invalid mbps parameter (want a finite rate > 0)")
			return
		}
		spec.Kind = stream.Probabilistic
		spec.RequiredMbps = mbps
		spec.Probability = 0.95
		if ps := q.Get("p"); ps != "" {
			p, err := strconv.ParseFloat(ps, 64)
			if err != nil || !(p > 0 && p < 1) { // also rejects NaN
				jsonError(w, http.StatusBadRequest, "invalid p parameter (want 0 < p < 1)")
				return
			}
			spec.Probability = p
		}
	}
	home := d.adm.Shard(d.adm.ShardFor(spec.Name))
	for _, s := range home.Admitted() {
		if s.Name == spec.Name {
			jsonError(w, http.StatusConflict, "stream name already admitted")
			return
		}
	}
	dec := d.adm.Admit(spec)
	status := http.StatusOK
	if !dec.Admitted {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, dec)
}

func (d *daemonAdmission) handleRelease(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		jsonError(w, http.StatusBadRequest, "missing name parameter")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":     name,
		"released": d.adm.Release(name),
	})
}

// handleStreams lists every shard's admitted specs in shard order.
func (d *daemonAdmission) handleStreams(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	all := []stream.Spec{}
	for i := 0; i < d.adm.Shards(); i++ {
		all = append(all, d.adm.Shard(i).Admitted()...)
	}
	writeJSON(w, http.StatusOK, all)
}
