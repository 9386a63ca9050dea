package pipeline

import (
	"fmt"
	"strings"
)

// debugState renders a snapshot of the machine for deadlock diagnostics.
func (c *Core) debugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d robCount=%d iq=%d fetchQ=%d freeRegs=%d rexHead=%d drain=%v fetchStallTil=%d waitBranch=%d\n",
		c.cycle, c.rob.size(), c.iqLen, c.fetchLen, len(c.freeList),
		c.rexHead, c.drainPending, c.fetchStallTil, int64(c.waitBranchSeq))
	fmt.Fprintf(&b, "lq=%d/%d sq=%d/%d rexBuf=%d\n",
		c.lq.Len(), c.lq.Cap(), c.sq.Len(), c.sq.Cap(), len(c.rexStoreBuf))
	if c.fsq != nil {
		fmt.Fprintf(&b, "fsq=%d/%d\n", c.fsq.Len(), c.fsq.Cap())
	}
	n := 0
	for seq := c.rob.headSeq; !c.rob.empty() && seq <= c.rob.tailSeq() && n < 8; seq++ {
		u := c.uopAt(seq)
		if u == nil {
			break
		}
		fmt.Fprintf(&b, "  rob[%d] uid=%d %v issued=%v done=%v rexDoneAt=%d waiting=%d waitSeq=%d completeC=%d srcs=%v ready=(",
			u.seq, u.uid, u.dyn.Inst, u.issued, u.completed, int64(u.rexDoneAt),
			u.waiting, u.waitSeq, u.completeC, u.srcPhys[:u.nsrc])
		for i := 0; i < u.nsrc; i++ {
			fmt.Fprintf(&b, "%d ", int64(c.readyAt[u.srcPhys[i]]))
		}
		fmt.Fprintf(&b, ")\n")
		n++
	}
	return b.String()
}
