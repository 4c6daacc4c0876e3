"""Simulated per-client throughput against the infinite-system prediction.

One small and one moderate server count at a fixed offered load, both
migration policies. The oblivious-walk prediction is the fixed point of
its one-dimensional root equation; the load-sensitive prediction is the
equilibrium of its mean-field system, solved by damped Newton.
"""

from migratesim.experiments import throughput_comparison

SERVER_COUNTS = [5, 20]
LOAD = 0.8
HOP_RATE = 0.5
HORIZON = 2000.0
REPS = 8


def main():
    rows = throughput_comparison(SERVER_COUNTS, [LOAD], HOP_RATE,
                                 horizon=HORIZON, reps=REPS,
                                 include_self=False)
    print(f"{'m':>4} {'policy':>7} {'throughput':>11} {'predicted':>10} "
          f"{'rel err':>8}")
    for r in rows:
        print(f"{r.m:>4} {r.policy:>7} {r.throughput:>11.4f} "
              f"{r.prediction:>10.4f} {r.rel_error:>8.2%}")
    print()
    print("the prediction sharpens as m grows; at m=5 the finite-system")
    print("bias is still visible, at m=20 it is a couple of percent")


if __name__ == "__main__":
    main()
