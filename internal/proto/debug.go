package proto

import (
	"fmt"
	"strings"
)

// DumpLocks renders the full lock-protocol state for diagnostics.
func (sy *System) DumpLocks() string {
	var b strings.Builder
	for i, lg := range sy.locks {
		fmt.Fprintf(&b, "lock %d: manager=n%d ownerView=n%d\n", i, lg.manager, lg.ownerView)
		for n, ns := range sy.ns {
			ln := ns.locks[i]
			if !ln.haveToken && !ln.busy && !ln.requested && len(ln.queue) == 0 && ln.granted == nil {
				continue
			}
			fmt.Fprintf(&b, "  n%d: token=%v busy=%v requested=%v waiting=%v granted=%v lastGrantedTo=n%d queue=[",
				n, ln.haveToken, ln.busy, ln.requested, ln.waiting, ln.granted != nil, ln.lastGrantedTo)
			for _, w := range ln.queue {
				if w.cond != nil {
					fmt.Fprintf(&b, "local ")
				} else {
					fmt.Fprintf(&b, "n%d ", w.remote)
				}
			}
			fmt.Fprintf(&b, "]\n")
		}
	}
	for n, ns := range sy.ns {
		fmt.Fprintf(&b, "n%d: protoBusy=%v pendingAcks=%d interval=%d vc=%v\n",
			n, ns.protoBusy, ns.pendingAcks, ns.interval, ns.vc)
	}
	for _, p := range sy.Procs {
		fmt.Fprintf(&b, "proc%d: where=%q handlerActive=%d\n", p.GlobalID, p.Where.String(), p.HandlerActive())
	}
	return b.String()
}
