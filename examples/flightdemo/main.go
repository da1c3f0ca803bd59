// Command flightdemo demonstrates the serving optimizer's flight recorder
// end to end: it starts a `starburst serve` daemon in-process, optimizes
// the paper's Figure 1 query to establish the query's plan history,
// then mutates the catalog's EMP cardinality in place — the classic
// "stats refresh landed" scenario — and optimizes again. The optimizer
// now picks a different plan for an unchanged query under an unchanged
// catalog *epoch*, the plan-stability watchdog flags the flip, and an
// incident bundle (schema stars/incident/v1) is captured with everything
// a post-mortem needs: SQL, rules, the mutated catalog, the event trace
// and the derivation DAG (re-derived from those inputs at capture time),
// and the recent-request ring.
//
// The demo then replays the incident from the bundle alone and prints the
// verdict: the replay re-derives the captured search space exactly,
// because the bundle snapshots the catalog *as it stood at capture time*
// — the flip explains itself.
//
//	go run ./examples/flightdemo
//	go run ./examples/flightdemo -dir ./incidents   # keep the bundles
//
// See docs/OBSERVABILITY.md § Flight recorder & incidents.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"stars"
)

// figure1SQL is the paper's Figure 1 EMP/DEPT join.
const figure1SQL = "SELECT DEPT.DNO, EMP.NAME FROM DEPT, EMP WHERE DEPT.DNO = EMP.DNO AND DEPT.MGR = 'Haas'"

func main() {
	dir := flag.String("dir", "", "incident directory (default: a fresh temp dir)")
	flag.Parse()

	if *dir == "" {
		d, err := os.MkdirTemp("", "flightdemo-incidents-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(d)
		*dir = d
	}

	// The daemon owns this catalog; we keep the pointer so we can mutate
	// its statistics mid-flight, exactly like an external stats refresh.
	cat := stars.EmpDeptCatalog()
	srv, err := stars.NewServer(stars.ServerConfig{
		Catalog: cat,
		Flight: stars.FlightConfig{
			MinSamples:    1,
			LatencyFactor: 1e9, // suppress latency triggers; this demo is about the flip
			IncidentDir:   *dir,
		},
	})
	if err != nil {
		fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			fatal(err)
		}
	}()
	addr := ln.Addr().String()
	base := "http://" + addr
	fmt.Printf("daemon up at %s, incidents -> %s\n\n", addr, *dir)

	fmt.Println("=== 1. establish the baseline plan ===")
	fp1 := optimize(base)
	fmt.Printf("figure 1 plan fingerprint: %s\n\n", fp1)

	fmt.Println("=== 2. a stats refresh lands: EMP cardinality 10000 -> 50 ===")
	cat.Table("EMP").Card = 50
	fp2 := optimize(base)
	fmt.Printf("figure 1 plan fingerprint: %s\n", fp2)
	if fp1 == fp2 {
		fatal(fmt.Errorf("expected the stats mutation to flip the plan (%s unchanged)", fp1))
	}
	fmt.Printf("plan flipped: %s -> %s, same SQL, same catalog epoch\n\n", fp1, fp2)

	fmt.Println("=== 3. the watchdog filed an incident ===")
	var listing struct {
		Incidents []struct {
			ID     string `json:"id"`
			Kind   string `json:"kind"`
			Detail string `json:"detail"`
		} `json:"incidents"`
	}
	getJSON(base+"/incidents", &listing)
	if len(listing.Incidents) == 0 {
		fatal(fmt.Errorf("no incident captured"))
	}
	inc := listing.Incidents[len(listing.Incidents)-1]
	fmt.Printf("%s (%s): %s\n", inc.ID, inc.Kind, inc.Detail)
	path := filepath.Join(*dir, inc.ID+".json")
	if st, err := os.Stat(path); err != nil {
		fatal(err)
	} else {
		fmt.Printf("bundle on disk: %s (%d bytes)\n\n", path, st.Size())
	}

	fmt.Println("=== 4. replay the incident from the bundle alone ===")
	bundle, err := stars.ReadIncident(path)
	if err != nil {
		fatal(err)
	}
	rr, err := stars.ReplayIncident(bundle)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("captured plan %s, replayed plan %s\n", rr.CapturedFP, rr.Fingerprint)
	if !rr.Identical {
		fatal(fmt.Errorf("replay diverged from the capture"))
	}
	fmt.Println("verdict: identical — the bundle snapshots the mutated catalog,")
	fmt.Println("so the replay re-derives the flipped plan exactly; the incident")
	fmt.Println("record (same epoch, different fingerprint) is the smoking gun.")
	fmt.Printf("\nbrowse it yourself: go run ./cmd/starburst incidents -dir %s %s\n", *dir, inc.ID)
}

// optimize POSTs figure1SQL and returns the chosen plan's fingerprint.
func optimize(base string) string {
	body, err := json.Marshal(map[string]any{"sql": figure1SQL})
	if err != nil {
		fatal(err)
	}
	resp, err := http.Post(base+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Plan struct {
			Fingerprint string `json:"fingerprint"`
		} `json:"plan"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		fatal(err)
	}
	if resp.StatusCode != http.StatusOK || out.Plan.Fingerprint == "" {
		fatal(fmt.Errorf("optimize: status %d", resp.StatusCode))
	}
	return out.Plan.Fingerprint
}

// getJSON decodes one GET response.
func getJSON(url string, into any) {
	resp, err := http.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flightdemo:", err)
	os.Exit(1)
}
