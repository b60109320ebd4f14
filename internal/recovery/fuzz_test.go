package recovery

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeCheckpoint holds the archive decoder to its contract on any
// input: ErrCorrupt, or a checkpoint that re-encodes to exactly the bytes it
// came from (so no field is read leniently and nothing trails). The committed
// corpus (testdata/fuzz/FuzzDecodeCheckpoint) carries a real archive and its
// damaged variants: truncated, a forged section count, a bool byte of 2.
func FuzzDecodeCheckpoint(f *testing.F) {
	cp := sampleCheckpoint()
	cp.Normalize()
	f.Add(Encode(cp))
	f.Add(Encode(&Checkpoint{}))
	f.Fuzz(func(t *testing.T, blob []byte) {
		got, err := Decode(blob)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode failed with %v, want ErrCorrupt", err)
			}
			return
		}
		if again := Encode(got); !bytes.Equal(again, blob) {
			t.Fatalf("decoded checkpoint re-encodes to %d bytes, input was %d:\n in  % x\n out % x",
				len(again), len(blob), blob, again)
		}
	})
}
