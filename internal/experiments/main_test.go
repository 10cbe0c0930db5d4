package experiments

import (
	"os"
	"testing"

	accmos "accmos"
)

// TestMain removes the build directory of the facade's default cache,
// which the experiments build through, when the test binary exits.
func TestMain(m *testing.M) {
	code := m.Run()
	accmos.DefaultBuildCache().Remove()
	os.Exit(code)
}
