// Dekker: the paper's Figure 1 walk-through. The store-buffering litmus
// test runs on all four system classes (bus/network × no-cache/caches)
// under unconstrained hardware and under sequential consistency; the
// forbidden outcome (both flags observed zero — "both processors killed")
// appears only on the unconstrained machines.
package main

import (
	"fmt"
	"log"

	"weakorder"
)

func dekker() *weakorder.Program {
	b := weakorder.NewProgram("dekker")
	x, y := b.Var("x"), b.Var("y")
	p0 := b.Thread()
	p0.StoreImm(x, 1)
	p0.Load(weakorder.R0, y)
	p1 := b.Thread()
	p1.StoreImm(y, 1)
	p1.Load(weakorder.R0, x)
	return b.MustBuild()
}

func main() {
	prog := dekker()
	fmt.Println(prog)

	// The program races: DRF0 offers it no guarantee.
	verdict, err := weakorder.CheckDRF0(prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(verdict)
	for _, r := range verdict.Races {
		fmt.Println("  ", r)
	}
	fmt.Println()

	// Under SC, exactly three outcomes are possible.
	outcomes, err := weakorder.SCOutcomes(prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequentially consistent outcomes (%d):\n", len(outcomes))
	for key := range outcomes {
		fmt.Println("  ", key)
	}
	fmt.Println()

	const seeds = 20
	fmt.Printf("%-18s %-14s %-12s %s\n", "system", "policy", "both-zero", "of runs")
	for _, topo := range []weakorder.Topology{weakorder.Bus, weakorder.Network} {
		for _, caches := range []bool{false, true} {
			for _, pol := range []weakorder.Policy{weakorder.Unconstrained, weakorder.SC} {
				cfg := weakorder.MachineConfig{
					Policy: pol, Topology: topo, Caches: caches, NetJitter: 20,
				}
				violations := 0
				for seed := int64(0); seed < seeds; seed++ {
					res, err := weakorder.Simulate(prog, cfg, seed)
					if err != nil {
						log.Fatal(err)
					}
					// The forbidden outcome: both loads returned zero.
					r0, _ := res.Result.Read(weakorder.OpID{Proc: 0, Index: 1})
					r1, _ := res.Result.Read(weakorder.OpID{Proc: 1, Index: 1})
					if r0.Value == 0 && r1.Value == 0 {
						violations++
					}
				}
				sys := map[bool]string{true: "caches", false: "nocache"}[caches]
				fmt.Printf("%-18s %-14s %-12d %d\n",
					fmt.Sprintf("%v+%s", topo, sys), pol, violations, seeds)
			}
		}
	}
	fmt.Println("\nunconstrained hardware exhibits the violation; SC hardware never does.")
}
