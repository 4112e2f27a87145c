//go:build race

package gcn

// raceEnabled reports a -race build, where sync.Pool deliberately drops a
// share of the buffers put into it, so scratch-arena hit rates (and the
// bytes an epoch allocates) are not meaningful.
const raceEnabled = true
