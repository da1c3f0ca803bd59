package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"stars"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestCoverJSONGolden pins `starburst cover -json` for the built-in
// repertoire and each ext/ repertoire, byte for byte, at -parallelism 1 and
// 4: both levels must reproduce the same golden.
func TestCoverJSONGolden(t *testing.T) {
	for _, ext := range []string{"", "semijoin", "bloom", "outerjoin"} {
		name := ext
		if name == "" {
			name = "builtin"
		}
		golden := filepath.Join("testdata", "cover."+name+".json")
		for _, par := range []int{1, 4} {
			opts, _, err := repertoireOptions(ext, "")
			if err != nil {
				t.Fatal(err)
			}
			opts.Parallelism = par
			rules := opts.Rules
			if rules == nil {
				rules = stars.DefaultRules()
			}
			rep, _ := coverCorpus(opts, rules)
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				t.Fatal(err)
			}
			if *update && par == 1 {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("cover -json -ext %q -parallelism %d differs from %s", ext, par, golden)
			}
		}
	}
}
