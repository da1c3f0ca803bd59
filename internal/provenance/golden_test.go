package provenance

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stars/internal/obs"
	"stars/internal/opt"
	"stars/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestCorpusChecksumsGolden pins the provenance DAG checksum of every
// workload corpus query at Parallelism 1 and 4, so changes to how the
// optimizer reports its derivations cannot silently alter the DAG.
func TestCorpusChecksumsGolden(t *testing.T) {
	var b strings.Builder
	for _, entry := range workload.Corpus() {
		var sums []string
		for _, par := range []int{1, 4} {
			res, err := opt.New(entry.Cat, opt.Options{Obs: obs.NewSink(), Parallelism: par}).Optimize(entry.Query)
			if err != nil {
				t.Fatalf("%s: %v", entry.Name, err)
			}
			dag, err := FromResult(res)
			if err != nil {
				t.Fatalf("%s: %v", entry.Name, err)
			}
			sums = append(sums, dag.Checksum())
		}
		if sums[0] != sums[1] {
			t.Errorf("%s: checksum differs across parallelism: %s vs %s", entry.Name, sums[0], sums[1])
		}
		fmt.Fprintf(&b, "%s %s\n", entry.Name, sums[0])
	}
	golden := filepath.Join("testdata", "corpus_checksums.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("corpus provenance checksums changed:\ngot:\n%swant:\n%s", got, want)
	}
}
