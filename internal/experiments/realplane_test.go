package experiments

import (
	"encoding/binary"
	"testing"

	"chant/internal/comm"
	"chant/internal/core"
	"chant/internal/machine"
)

// TestRealRingFanIn runs a 3-sender fan-in through the real-mode data plane
// (synchronous deposit under the mailbox lock and the zero-copy direct path,
// the one delivery path every host shares): per-sender FIFO must hold at the
// receiver, the order-insensitive checksum of everything received must equal
// its closed form in senders × perSender, and the delivery stats must show
// the data plane actually carried the messages. The name is kept from the
// ingress ring this test used to cover.
func TestRealRingFanIn(t *testing.T) {
	const senders, perSender, window = 3, 200, 32
	const seqWeight = 2654435761
	var checksum, planeMsgs uint64
	rt := core.NewRealRuntime(core.Topology{PEs: senders + 1, ProcsPerPE: 1},
		core.Config{Policy: core.SchedulerPollsPS, DisableServer: true}, machine.Modern())
	mains := map[comm.Addr]core.MainFunc{}
	mains[comm.Addr{PE: 0, Proc: 0}] = func(th *core.Thread) {
		for s := 1; s <= senders; s++ {
			th.Send(core.GlobalID{PE: int32(s), Proc: 0, Thread: 0}, 2, []byte{1})
		}
		buf := make([]byte, 16)
		got := make([]int, senders+1)
		for i := 0; i < senders*perSender; i++ {
			n, from, err := th.Recv(core.AnyThread, 1, buf)
			if err != nil {
				t.Error(err)
				return
			}
			if n != 8 {
				t.Errorf("message %d: %d bytes, want 8", i, n)
				return
			}
			sender := binary.LittleEndian.Uint32(buf)
			seq := binary.LittleEndian.Uint32(buf[4:])
			if int32(sender) != from.PE {
				t.Errorf("payload claims sender %d but header says %d", sender, from.PE)
				return
			}
			if int(seq) != got[from.PE] {
				t.Errorf("sender %d: seq %d arrived after %d deliveries (per-pair FIFO broken)",
					from.PE, seq, got[from.PE])
				return
			}
			got[from.PE]++
			checksum += uint64(sender)<<32 + uint64(seq)*seqWeight
			if got[from.PE]%window == 0 {
				th.Send(from, 3, []byte{1})
			}
		}
		_, ring, direct := th.Process().Endpoint().IngressStats()
		planeMsgs = ring + direct
	}
	for s := 1; s <= senders; s++ {
		s := s
		mains[comm.Addr{PE: int32(s), Proc: 0}] = func(th *core.Thread) {
			recv := core.GlobalID{PE: 0, Proc: 0, Thread: 0}
			ack := make([]byte, 4)
			out := make([]byte, 8)
			if _, _, err := th.Recv(core.AnyThread, 2, ack); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < perSender; i++ {
				binary.LittleEndian.PutUint32(out, uint32(s))
				binary.LittleEndian.PutUint32(out[4:], uint32(i))
				th.Send(recv, 1, out)
				if (i+1)%window == 0 {
					if _, _, err := th.Recv(core.AnyThread, 3, ack); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}
	}
	if _, err := rt.Run(mains); err != nil {
		t.Fatal(err)
	}
	// Every sender 1..senders contributes each seq 0..perSender-1 once.
	const want = uint64(perSender*senders*(senders+1)/2)<<32 +
		uint64(senders*perSender*(perSender-1)/2)*seqWeight
	if checksum != want {
		t.Errorf("checksum %#x, want %#x", checksum, want)
	}
	if planeMsgs == 0 {
		t.Error("no message was delivered or deposited direct; the test is vacuous")
	}
}
