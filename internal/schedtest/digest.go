package schedtest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"fastsched/internal/dag"
	"fastsched/internal/sched"
)

// Digest hashes a complete schedule's placements — processor, start
// and finish of every node in ID order, bit for bit — into 16 hex
// digits, so a test can pin a schedule without a second implementation
// to compare it against.
func Digest(s *sched.Schedule) string {
	h := sha256.New()
	var buf [24]byte
	for n := 0; n < s.NumNodes(); n++ {
		p := s.Of(dag.NodeID(n))
		binary.LittleEndian.PutUint64(buf[0:], uint64(p.Proc))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Start))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(p.Finish))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
