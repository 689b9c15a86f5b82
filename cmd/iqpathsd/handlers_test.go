package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"iqpaths/internal/gossip"
)

// testSink builds a warmed sink admission plane plus its HTTP mux, the
// same wiring startHTTP performs for the sink role.
func testSink(t *testing.T, shards int) (*daemonAdmission, *http.ServeMux) {
	t.Helper()
	adm := newDaemonAdmission(100, shards)
	for i := 0; i < 150; i++ {
		adm.observe(10) // 90 Mbps of steady headroom feeds every shard's CDF
	}
	mux := http.NewServeMux()
	adm.register(mux)
	(&daemonGossip{adm: adm}).register(mux)
	return adm, mux
}

func do(mux *http.ServeMux, method, target string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	return w
}

// decodeError parses the {"error": ...} body every failure answer uses.
func decodeError(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error body Content-Type = %q, want application/json", ct)
	}
	var e struct{ Error string }
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body not JSON: %v\n%s", err, w.Body.String())
	}
	if e.Error == "" {
		t.Fatalf("error body missing error field: %s", w.Body.String())
	}
	return e.Error
}

func TestAdmitHandlerErrors(t *testing.T) {
	_, mux := testSink(t, 1)
	cases := []struct {
		name, method, target string
		status               int
		errSub               string
	}{
		{"wrong method", http.MethodGet, "/admission/admit?name=x&mbps=5", http.StatusMethodNotAllowed, "not allowed"},
		{"missing name", http.MethodPost, "/admission/admit?mbps=5", http.StatusBadRequest, "missing name"},
		{"missing mbps", http.MethodPost, "/admission/admit?name=x", http.StatusBadRequest, "mbps"},
		{"garbage mbps", http.MethodPost, "/admission/admit?name=x&mbps=lots", http.StatusBadRequest, "mbps"},
		{"negative mbps", http.MethodPost, "/admission/admit?name=x&mbps=-3", http.StatusBadRequest, "mbps"},
		{"p out of range", http.MethodPost, "/admission/admit?name=x&mbps=5&p=1.5", http.StatusBadRequest, "p parameter"},
		{"release wrong method", http.MethodGet, "/admission/release?name=x", http.StatusMethodNotAllowed, "not allowed"},
		{"release missing name", http.MethodPost, "/admission/release", http.StatusBadRequest, "missing name"},
		{"streams wrong method", http.MethodPost, "/admission/streams", http.StatusMethodNotAllowed, "not allowed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(mux, tc.method, tc.target, nil)
			if w.Code != tc.status {
				t.Fatalf("status = %d, want %d\n%s", w.Code, tc.status, w.Body.String())
			}
			if msg := decodeError(t, w); !strings.Contains(msg, tc.errSub) {
				t.Fatalf("error %q does not mention %q", msg, tc.errSub)
			}
			if tc.status == http.StatusMethodNotAllowed && w.Header().Get("Allow") == "" {
				t.Fatal("405 without Allow header")
			}
		})
	}
}

// TestAdmitRejectsNonFiniteMbps is the regression test for non-finite
// rates: mbps=NaN used to pass the "mbps <= 0" check, answer 200 with an
// empty body (the decision held a NaN json cannot encode), and leave an
// admitted NaN stream that broke every later /admission/streams listing.
func TestAdmitRejectsNonFiniteMbps(t *testing.T) {
	_, mux := testSink(t, 1)
	for _, mbps := range []string{"NaN", "%2BInf", "-Inf", "-1", "0"} {
		for _, kind := range []string{"", "&kind=besteffort"} {
			target := "/admission/admit?name=x&mbps=" + mbps + kind
			w := do(mux, http.MethodPost, target, nil)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("%s: status = %d, want 400\n%s", target, w.Code, w.Body.String())
			}
			if msg := decodeError(t, w); !strings.Contains(msg, "mbps") {
				t.Fatalf("%s: error %q does not mention mbps", target, msg)
			}
		}
	}
	if w := do(mux, http.MethodPost, "/admission/admit?name=x&mbps=5&p=NaN", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("p=NaN: status = %d, want 400", w.Code)
	}
	// A best-effort stream without a rate is still admitted.
	if w := do(mux, http.MethodPost, "/admission/admit?name=be&kind=besteffort", nil); w.Code != http.StatusOK {
		t.Fatalf("best effort without mbps: status = %d\n%s", w.Code, w.Body.String())
	}
	w := do(mux, http.MethodGet, "/admission/streams", nil)
	var specs []struct{ Name string }
	if w.Code != http.StatusOK {
		t.Fatalf("streams status = %d", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &specs); err != nil {
		t.Fatalf("streams body not decodable: %v\n%s", err, w.Body.String())
	}
	if len(specs) != 1 || specs[0].Name != "be" {
		t.Fatalf("streams = %s, want only the best-effort stream", w.Body.String())
	}
}

// TestWriteJSONUnencodable checks the status is chosen after encoding: a
// value json cannot represent answers 500 with a JSON error body, never a
// success status with an empty body.
func TestWriteJSONUnencodable(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, map[string]float64{"rate": math.NaN()})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", w.Code)
	}
	decodeError(t, w)
}

func TestAdmitReleaseFlow(t *testing.T) {
	_, mux := testSink(t, 2)
	w := do(mux, http.MethodPost, "/admission/admit?name=Gold&mbps=20&p=0.9", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("admit status = %d\n%s", w.Code, w.Body.String())
	}
	var dec struct {
		Admitted bool
		Spec     struct{ Name string }
	}
	if err := json.Unmarshal(w.Body.Bytes(), &dec); err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted || dec.Spec.Name != "Gold" {
		t.Fatalf("unexpected decision: %s", w.Body.String())
	}

	if w := do(mux, http.MethodPost, "/admission/admit?name=Gold&mbps=5&p=0.9", nil); w.Code != http.StatusConflict {
		t.Fatalf("duplicate admit status = %d, want 409", w.Code)
	}

	w = do(mux, http.MethodGet, "/admission/streams", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "Gold") {
		t.Fatalf("streams = %d %s", w.Code, w.Body.String())
	}

	w = do(mux, http.MethodPost, "/admission/release?name=Gold", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "true") {
		t.Fatalf("release = %d %s", w.Code, w.Body.String())
	}
	if w := do(mux, http.MethodGet, "/admission/streams", nil); strings.Contains(w.Body.String(), "Gold") {
		t.Fatalf("stream survived release: %s", w.Body.String())
	}
}

func TestAdmitRejectionIs503WithUpcall(t *testing.T) {
	_, mux := testSink(t, 1)
	w := do(mux, http.MethodPost, "/admission/admit?name=Huge&mbps=500&p=0.95", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503\n%s", w.Code, w.Body.String())
	}
	var dec struct {
		Admitted     bool
		Reason       string
		BestRateMbps float64
	}
	if err := json.Unmarshal(w.Body.Bytes(), &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Admitted || dec.Reason == "" {
		t.Fatalf("rejection lacks reason: %s", w.Body.String())
	}
	if dec.BestRateMbps <= 0 || dec.BestRateMbps >= 500 {
		t.Fatalf("best-rate upcall %v out of range", dec.BestRateMbps)
	}
}

// TestGossipRepairRoundTrip replays the daemon-to-daemon repair
// conversation in-process: daemon A admits streams and publishes, then
// daemon B fetches A's digest, asks for the delta it is missing, and
// ingests it — after which B's replica table covers A's records and A
// has nothing left to send B.
func TestGossipRepairRoundTrip(t *testing.T) {
	admA, muxA := testSink(t, 2)
	admB, muxB := testSink(t, 2)

	for _, q := range []string{"name=Gold&mbps=20&p=0.9", "name=Silver&mbps=10&p=0.9"} {
		if w := do(muxA, http.MethodPost, "/admission/admit?"+q, nil); w.Code != http.StatusOK {
			t.Fatalf("admit %s: %d %s", q, w.Code, w.Body.String())
		}
	}
	admA.publish()
	if len(admA.adm.ReplicaRecords()) == 0 {
		t.Fatal("publish originated nothing")
	}

	// B asks A for everything newer than B's (empty) digest.
	w := do(muxB, http.MethodGet, "/gossip/digest", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET digest: %d", w.Code)
	}
	w = do(muxA, http.MethodPost, "/gossip/digest", w.Body.Bytes())
	if w.Code != http.StatusOK {
		t.Fatalf("POST digest: %d %s", w.Code, w.Body.String())
	}
	delta, err := gossip.ParseDelta(w.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) != len(admA.adm.ReplicaRecords()) {
		t.Fatalf("delta carries %d records, want %d", len(delta), len(admA.adm.ReplicaRecords()))
	}
	if w := do(muxB, http.MethodPost, "/gossip/push", w.Body.Bytes()); w.Code != http.StatusOK {
		t.Fatalf("push: %d %s", w.Code, w.Body.String())
	}
	bd := admB.adm.Digest()
	for _, r := range admA.adm.ReplicaRecords() {
		if bd[r.Origin] < r.Seq {
			t.Fatalf("B's digest does not cover %+v after push", r)
		}
	}

	// Now that B is caught up, A's answer to B's digest must be empty.
	w = do(muxB, http.MethodGet, "/gossip/digest", nil)
	w = do(muxA, http.MethodPost, "/gossip/digest", w.Body.Bytes())
	delta, err = gossip.ParseDelta(w.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) != 0 {
		t.Fatalf("repaired peer still owed %d records", len(delta))
	}
}

func TestGossipRejectsMalformedBodies(t *testing.T) {
	_, mux := testSink(t, 1)
	if w := do(mux, http.MethodPost, "/gossip/digest", []byte("not a digest")); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed digest: %d, want 400", w.Code)
	} else {
		decodeError(t, w)
	}
	if w := do(mux, http.MethodPost, "/gossip/push", []byte{0xff, 0x00, 0x01}); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed delta: %d, want 400", w.Code)
	} else {
		decodeError(t, w)
	}
	if w := do(mux, http.MethodDelete, "/gossip/digest", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE digest: %d, want 405", w.Code)
	}
	if w := do(mux, http.MethodGet, "/gossip/push", nil); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET push: %d, want 405", w.Code)
	}
}
