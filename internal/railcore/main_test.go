package railcore_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain enforces the shutdown contract mechanically: no link writer,
// reader or health goroutine of either transport may survive the last
// test's Close.
func TestMain(m *testing.M) { leakcheck.Main(m) }
