// Package hostonly sits under internal/analysis, the one tree under
// internal/ that detlint leaves alone: the analyzers run on the host, never
// in a simulation, so nothing here is reported.
package hostonly

import "time"

var sink any

func unchecked(done chan<- struct{}) {
	sink = time.Now()
	go func() { close(done) }()
}
