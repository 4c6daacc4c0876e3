import math

from migratesim.balance import initial_all_at_one, measure_balance_time
from migratesim.model import SystemConfig

SERVERS = [4, 8, 16]
CLIENTS_PER_SERVER = 16
REPS = 100
BASE_SEED = 42


def main():
    print("time to perfect balance, worst-case start (everyone on server 0)")
    print(f"{'m':>4} {'n':>6} {'mean':>8} {'sd':>8} {'bound':>8}")
    for m in SERVERS:
        n = m * CLIENTS_PER_SERVER
        cfg = SystemConfig(m=m)
        res = measure_balance_time(cfg, initial_all_at_one(m, n),
                                   reps=REPS, base_seed=BASE_SEED)
        print(f"{m:>4} {n:>6} {res.mean:>8.3f} {res.sd:>8.3f} "
              f"{res.bound:>8.2f}")
    print()
    print("the bound grows like 3(1+ln m)(m^2/n + ln m + 1); the measured")
    print(f"mean stays closer to ln m (ln 16 = {math.log(16):.2f})")


if __name__ == "__main__":
    main()
