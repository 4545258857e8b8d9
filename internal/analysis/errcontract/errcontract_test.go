package errcontract

import (
	"testing"

	"lifeguard/internal/analysis/analysistest"
)

func TestErrcontract(t *testing.T) {
	analysistest.Run(t, ".", Analyzer, "a", "api", "b", "clean", "ignore")
}
