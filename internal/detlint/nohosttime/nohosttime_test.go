package nohosttime_test

import (
	"testing"

	"repro/internal/detlint/analysistest"
	"repro/internal/detlint/nohosttime"
)

func TestNoHostTime(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(t), nohosttime.Analyzer,
		"example.com/internal/sim", // simulator scope: positives + seeded negatives
		"example.com/cmd/tool",     // boundary: out of scope, must be clean
	)
}
