// Command detlint runs the simulator's custom determinism/ABI/trace
// analyzers (internal/detlint) over Go packages: `detlint ./...` (or
// `go run ./cmd/detlint ./...`) loads packages through `go list -export`
// and prints findings. Exit status 2 means findings, 1 means failure to
// analyze.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/detlint"
)

var jsonFlag = flag.Bool("json", false, "emit JSON output")

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: detlint [-json] package...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	diags, err := detlint.Run(".", args...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
		os.Exit(1)
	}
	report(diags)
}

func report(diags []detlint.Diagnostic) {
	if *jsonFlag {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
			os.Exit(1)
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
		}
	}
	if len(diags) > 0 && !*jsonFlag {
		os.Exit(2)
	}
}
