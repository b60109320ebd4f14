// Package wire stands in for chant/internal/wire, the control-plane codec:
// in detlint's scope like every package under internal/.
package wire

import "time"

// Enc stubs the encoder.
type Enc struct{ stamp int64 }

func (e *Enc) Stamp(done chan<- int64) {
	e.stamp = time.Now().UnixNano() // want `time\.Now in simulation-critical package chant/internal/wire`
	go func() { done <- e.stamp }() // want `raw go statement in simulation-critical package chant/internal/wire`
}
