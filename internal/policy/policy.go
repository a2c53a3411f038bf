// Package policy enumerates the memory-consistency enforcement policies
// the machine can run — the designs the paper compares:
//
//   - SC: the Scheurich-Dubois sufficient condition for sequential
//     consistency — each processor issues its accesses in program order
//     and stalls until the previous access is globally performed.
//   - Unconstrained: a write-buffered, non-blocking-write processor with
//     no ordering enforcement between locations; reads may bypass
//     buffered writes. This is the hardware whose Figure 1 violations
//     motivate the paper. It is NOT weakly ordered.
//   - WODef1: weak ordering per Dubois/Scheurich/Briggs Definition 1 —
//     a processor stalls at a synchronization operation until all its
//     previous accesses are globally performed (condition 2) and issues
//     no further access until the synchronization operation itself is
//     globally performed (condition 3).
//   - WODef2: the paper's Section 5.3 implementation of the new
//     definition — synchronization operations stall only until they
//     commit; a per-processor counter and per-line reserve bits make the
//     *next* processor synchronizing on the same location wait instead.
//   - WODef2RO: WODef2 plus the Section 6 refinement — read-only
//     synchronization operations are uncached value reads that neither
//     serialize on the lock line nor stall on reserve bits.
package policy

import "fmt"

// Kind selects a consistency-enforcement policy.
type Kind int

// The supported policies.
const (
	SC Kind = iota
	Unconstrained
	WODef1
	WODef2
	WODef2RO
)

// All lists every policy, in presentation order.
func All() []Kind { return []Kind{SC, Unconstrained, WODef1, WODef2, WODef2RO} }

// String names the policy as used in reports.
func (k Kind) String() string {
	switch k {
	case SC:
		return "SC"
	case Unconstrained:
		return "Unconstrained"
	case WODef1:
		return "WO-Def1"
	case WODef2:
		return "WO-Def2"
	case WODef2RO:
		return "WO-Def2+RO"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Parse returns the policy named s (the String form, case-sensitive).
func Parse(s string) (Kind, error) {
	for _, k := range All() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("policy: unknown policy %q (want one of SC, Unconstrained, WO-Def1, WO-Def2, WO-Def2+RO)", s)
}

// UsesWriteBuffer reports whether the processor buffers writes (all but SC).
func (k Kind) UsesWriteBuffer() bool { return k != SC }

// UsesReserve reports whether caches run the Section 5.3 reserve-bit
// mechanism.
func (k Kind) UsesReserve() bool { return k == WODef2 || k == WODef2RO }

// ROSyncBypass reports whether read-only synchronization operations take
// the Section 6 uncached-read path.
func (k Kind) ROSyncBypass() bool { return k == WODef2RO }

// DrainBeforeSync reports whether the processor must wait for all previous
// accesses to be globally performed before issuing a synchronization
// operation (Definition 1 condition 2; SC enforces a stronger per-access
// version, handled separately).
func (k Kind) DrainBeforeSync() bool { return k == WODef1 }

// WaitSyncGlobal reports whether the processor stalls after a
// synchronization operation until it is globally performed (Definition 1
// condition 3). The paper's implementation (WODef2) proceeds at commit.
func (k Kind) WaitSyncGlobal() bool { return k == WODef1 }

// PerAccessGlobal reports whether every access stalls the processor until
// globally performed (the SC sufficient condition).
func (k Kind) PerAccessGlobal() bool { return k == SC }
