//go:build race

package transport

// raceEnabled reports whether this test binary was built with -race; the
// race runtime allocates on its own, so allocation budgets are not
// checked under it.
const raceEnabled = true
