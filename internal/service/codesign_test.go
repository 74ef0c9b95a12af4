package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/workload"
)

// TestCorpusSelectITLBMpki drives the new translation-pressure
// fingerprint fields through the HTTP sweep path: captures of a small
// (DB) and a flat multi-MiB (Microservice) image get different
// itlb_mpki fingerprints, and a corpus:select(itlb_mpki>t) axis pins
// only the high-pressure trace.
func TestCorpusSelectITLBMpki(t *testing.T) {
	cfg := testConfig(t)
	cfg.ResultDir = t.TempDir()
	s, srv := newTestServer(t, cfg)

	db, err := s.Corpus().Capture(workload.NewGenerator(workload.MustBuildProgram(workload.DB(), 0), 1), "DB", 0, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := s.Corpus().Capture(workload.NewGenerator(workload.MustBuildProgram(workload.Microservice(), 0), 1), "Microservice", 0, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, man := range []struct {
		name string
		fp   float64
		fb   uint64
	}{
		{"DB", db.Fingerprint.ITLBMpki, db.Fingerprint.FootprintBytes},
		{"Microservice", ms.Fingerprint.ITLBMpki, ms.Fingerprint.FootprintBytes},
	} {
		if man.fb == 0 {
			t.Fatalf("%s capture has zero footprint_bytes fingerprint", man.name)
		}
	}
	if ms.Fingerprint.ITLBMpki <= db.Fingerprint.ITLBMpki {
		t.Fatalf("Microservice itlb_mpki %.3f <= DB %.3f; fingerprint does not separate translation pressure",
			ms.Fingerprint.ITLBMpki, db.Fingerprint.ITLBMpki)
	}

	threshold := (db.Fingerprint.ITLBMpki + ms.Fingerprint.ITLBMpki) / 2
	body, err := json.Marshal(sweep.Spec{
		Name:          "itlb-sel",
		Schemes:       []string{"none"},
		Workloads:     []string{fmt.Sprintf("corpus:select(itlb_mpki>%.4f)", threshold)},
		Cores:         []int{1},
		WarmInstrs:    10_000,
		MeasureInstrs: 20_000,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/sweeps?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v SweepView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v.State != SweepCompleted {
		t.Fatalf("sweep state = %s (%s)", v.State, v.Error)
	}
	if len(v.Spec.Workloads) != 1 || v.Spec.Workloads[0] != "trace:"+ms.ID {
		t.Fatalf("selector expanded to %v, want [trace:%s] (the high-pressure capture)",
			v.Spec.Workloads, ms.ID)
	}
}

// TestCodesignSweepEndToEnd runs the acceptance-criteria sweep through
// the daemon: insertion policy x TLB fill x three schemes on the
// Microservice profile, completing with a deterministic content-derived
// sweep ID and one journal entry per expanded point.
func TestCodesignSweepEndToEnd(t *testing.T) {
	cfg := testConfig(t)
	cfg.ResultDir = t.TempDir()
	s := newTestService(t, cfg)

	spec := sweep.Spec{
		Name:          "codesign-e2e",
		Schemes:       []string{"none", "nl-tagged", "discontinuity"},
		Workloads:     []string{"Microservice"},
		Cores:         []int{1},
		Inserts:       []string{"mru", "lru"},
		TLBFills:      []string{"none", "primary"},
		WarmInstrs:    5_000,
		MeasureInstrs: 10_000,
		Seed:          1,
	}
	points, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 3 schemes x 2 inserts x 2 tlb-fills, defaults deduped onto the
	// canonical cells, plus the appended no-bypass baseline point.
	if len(points) != 13 {
		t.Fatalf("grid has %d points, want 13: %+v", len(points), points)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	v, err := s.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v, err = s.WaitSweep(ctx, v.ID); err != nil || v.State != SweepCompleted {
		t.Fatalf("sweep: %v (state %s, %s)", err, v.State, v.Error)
	}
	if v.Completed != len(points) {
		t.Fatalf("completed %d points, want %d", v.Completed, len(points))
	}

	// Resubmission is attach-by-identity, not recomputation.
	v2, err := s.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v2.ID != v.ID {
		t.Fatalf("resubmit sweep id %s, want %s", v2.ID, v.ID)
	}
	// The ID is content-derived: spelling a default axis value
	// explicitly must not mint a new sweep identity at the point level,
	// but a different non-default axis value must.
	changed := spec
	changed.TLBFills = []string{"none", "secondary"}
	if changed.ID(spec.WarmInstrs, spec.MeasureInstrs, spec.Seed) ==
		spec.ID(spec.WarmInstrs, spec.MeasureInstrs, spec.Seed) {
		t.Fatal("distinct tlb-fill axes share a sweep ID")
	}
}
