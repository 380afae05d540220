"""Dissipative charging of a qubit battery.

With the counter-rotating coupling sx sx - sy sy a thermal stream drives
the system into a population-inverted steady state (the beta -> -beta
thermal state), paying switching work while heat flows.  Swapping in the
energy-preserving exchange coupling recovers plain thermalization.
"""

import numpy as np

from collisim import scenarios, thermo

try:
    import matplotlib.pyplot as plt
except ImportError:
    plt = None


def main():
    charged = scenarios.run_scenario("battery")
    passive = scenarios.run_scenario("battery", {"interaction": "exchange"})

    for label, result in (("charging (sx sx - sy sy)", charged),
                          ("exchange (sx sx + sy sy)", passive)):
        s = result.summary
        print(label)
        print(f"  steady populations: {np.round(s['steady_populations'], 6)}")
        print(f"  population inverted: {s['population_inverted']}")
        print(f"  distance to thermal state:          {s['distance_to_thermal']:.3e}")
        print(f"  distance to inverted thermal state: {s['distance_to_inverted_thermal']:.3e}")
        print(f"  steady heat rate {s['Q_rate']:.3e}, work rate {s['W_rate']:.3e}\n")

    ledger = thermo.build_ledger(charged.trajectory)
    cum = {name: np.cumsum(ledger[name]) for name in ("dE_S", "W", "Q_resource")}
    print("charging transient (cumulative, first 50 collisions)")
    print(f"  energy gained by the system: {cum['dE_S'][49]:.4f}")
    print(f"  switching work supplied:     {cum['W'][49]:.4f}")
    print(f"  heat dumped into the units:  {cum['Q_resource'][49]:.4f}")

    if plt is not None:
        fig, ax = plt.subplots()
        ax.plot(cum["W"], label="work in")
        ax.plot(cum["dE_S"], label="system energy")
        ax.plot(cum["Q_resource"], label="heat out")
        ax.set_xlabel("collision number")
        ax.legend()
        fig.savefig("battery_charging.png", dpi=150)
        print("  wrote battery_charging.png")


if __name__ == "__main__":
    main()
