"""The energy functionals.

Families:

* ``sigma``   capillary-gravity energy; thirteen weighted terms (nine in the
              first group, four velocity terms), sigma-weighted ones vanish
              identically at sigma = 0
* ``high``    higher-order energy of the zero-surface-tension solution
* ``aux``     auxiliary zero-surface-tension energy (the coupling partner)
* ``delta``   difference energy between a sigma > 0 solution (a) and a
              sigma = 0 solution (b), subtracted in Lagrangian labels via
              Delta(f) = f_a - U(f_b), plus the coupling term sigma * aux(b)
* ``f_delta`` uniqueness-grade difference norm (seven first-power terms)

Every report carries its named components separately; totals are sums of
the stored components.  Fractional powers of Z_ap use the continuous
branch of log Z_ap carried by the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .brackets import compose_map_apply
from .evolution import continue_angle, derive_states


@dataclass
class EnergyReport:
    family: str
    time: float
    components: dict = field(default_factory=dict)

    @property
    def total(self):
        return float(sum(self.components.values()))

    def csv_header(self):
        return "time," + ",".join(self.components) + ",total"

    def csv_row(self):
        vals = [self.time, *self.components.values(), self.total]
        return ",".join("%.17g" % v for v in vals)

    def to_json_dict(self):
        return {
            "family": self.family,
            "time": self.time,
            "components": {k: float(v) for k, v in self.components.items()},
            "total": self.total,
        }


def _state_blocks(*states):
    """Shared ingredients of all families for states on one grid, kept on
    each state.

    The states whose blocks are not yet kept are built together in one
    stacked pass, and the blocks of each are bit-identical to building
    that state alone.  The numerical solution lives on the dealiased band,
    so every nonlinear ingredient is rebuilt band-limited before
    derivatives are taken: the ringing that pointwise division leaves
    above the filter cutoff is representation debris, and the
    k^3-amplified weighted norms would otherwise be dominated by it on
    marginally resolved states.
    """
    new = [st for st in states if "energy_blocks" not in st._memo]
    if new:
        for st, blocks in zip(new, _build_blocks(new)):
            st._memo["energy_blocks"] = blocks
    return [st._memo["energy_blocks"] for st in states]


# the symbols dealias D^j, j = 0..3, of the derivative ladders of the blocks
_LADDER = ("dealias", "dealias_deriv", "dealias_deriv2", "dealias_deriv3")


def _build_blocks(states):
    """Blocks of each of states from four multiply_symbol calls on stacks of
    all states: the band Z_ap,band = 1 + dealias(Z_ap - 1), the ladders
    dealias D^j of conj(Z_t) (j = 1..3) and of 1/Z_ap,band (j = 0..3), each
    from one forward transform, and H q."""
    grid = states[0].grid
    Zp_band = 1.0 + grid.dealias(np.array([st.Zp for st in states]) - 1.0)
    Ztb1, Ztb2, Ztb3 = grid.multiply_symbol(
        np.conj(np.array([st.Zt for st in states])), grid.symbol_table(_LADDER[1:])[:, None]
    )
    inv, d1, d2, d3 = grid.multiply_symbol(1.0 / Zp_band, grid.symbol_table(_LADDER)[:, None])
    # H q, q = omega D 1/Z_ap,band
    omega = Zp_band / np.abs(Zp_band)
    q = omega * d1
    h_q = grid.hilbert(q)
    Theta = 1j * q - 1j * (q - h_q).real
    g_band = continue_angle(Zp_band, np.array([st.g for st in states]))
    log_Zp = np.log(np.abs(Zp_band)) + 1j * g_band
    names = ("inv", "d1", "d2", "d3", "Ztb1", "Ztb2", "Ztb3", "omega", "Theta", "log_Zp")
    rows = (inv, d1, d2, d3, Ztb1, Ztb2, Ztb3, omega, Theta, log_Zp)
    return [
        {"grid": grid, "powers": {}, "sup_Zp12_d1": None, **dict(zip(names, fields))}
        for fields in zip(*rows)
    ]


def _powers(B):
    """p -> Z_ap^p on the band, through the continuous branch of log Z_ap;
    each power is computed once and kept in the blocks."""
    log_Zp, kept = B["log_Zp"], B["powers"]

    def power(p):
        if p not in kept:
            kept[p] = np.exp(p * log_Zp)
        return kept[p]

    return power


def _sup_norms(grid, rows, blocks):
    """sup_norm of each of rows, real or complex, and the sup
    |Z_ap^(1/2) D(1/Z_ap)| of each of blocks, from one stacked sup_norm call.

    That sup is kept in the blocks, unscaled, for the sigma and aux
    families, and only the blocks that lack it add a row to the stack.
    Rows of a stack are bit-identical to single calls, so a kept value does
    not depend on which call filled it.
    """
    missing = [B for B in blocks if B["sup_Zp12_d1"] is None]
    stack = [*rows, *(_powers(B)(0.5) * B["d1"] for B in missing)]
    sups = grid.sup_norm(np.array(stack)).tolist() if stack else []
    for B, sup in zip(missing, sups[len(rows):]):
        B["sup_Zp12_d1"] = sup
    return sups[: len(rows)], [B["sup_Zp12_d1"] for B in blocks]


def energy_sigma(state):
    """The thirteen-term capillary-gravity energy of one solution; its
    components are computed once per state and kept on it."""
    comp = state._cached("energy_sigma", _sigma_components)
    return EnergyReport("sigma", state.time, dict(comp))


def _sigma_components(state):
    s = state.sigma
    (B,) = _state_blocks(state)
    grid, inv, d1, d2, d3 = B["grid"], B["inv"], B["d1"], B["d2"], B["d3"]
    pw = _powers(B)
    dTheta = grid.deriv(B["Theta"])
    _, (sup_Zp12_d1,) = _sup_norms(grid, (), (B,))
    return {
        "dap_invZp_L2sq": grid.l2_norm(d1) ** 2,
        "invZp_dap_invZp_Hhalfsq": grid.hhalf_norm(inv * d1) ** 2,
        "sigma_dap_Theta_Hhalfsq": grid.hhalf_norm(s * dTheta) ** 2,
        "sigma16_Zp12_dap_invZp_L2p6": grid.l2_norm(s ** (1 / 6) * pw(0.5) * d1) ** 6,
        "sigma12_Zp12_dap_invZp_Linfsq": s * sup_Zp12_d1 ** 2,
        "sigma12_invZp12_dap2_invZp_L2sq": grid.l2_norm(np.sqrt(s) * pw(-0.5) * d2) ** 2,
        "sigma12_invZp32_dap2_invZp_Hhalfsq": grid.hhalf_norm(np.sqrt(s) * pw(-1.5) * d2) ** 2,
        "sigma_invZp_dap3_invZp_L2sq": grid.l2_norm(s * inv * d3) ** 2,
        "sigma_invZp2_dap3_invZp_Hhalfsq": grid.hhalf_norm(s * pw(-2.0) * d3) ** 2,
        "Ztapbar_L2sq": grid.l2_norm(B["Ztb1"]) ** 2,
        "invZp2_dap_Ztapbar_L2sq": grid.l2_norm(pw(-2.0) * B["Ztb2"]) ** 2,
        "sigma12_invZp12_dap_Ztapbar_L2sq": grid.l2_norm(np.sqrt(s) * pw(-0.5) * B["Ztb2"]) ** 2,
        "sigma12_invZp52_dap2_Ztapbar_L2sq": grid.l2_norm(np.sqrt(s) * pw(-2.5) * B["Ztb3"]) ** 2,
    }


def energy_high(state):
    """Five-term higher-order energy for zero surface tension."""
    (B,) = _state_blocks(state)
    grid, pw = B["grid"], _powers(B)
    comp = {
        "dap_invZp_L2sq": grid.l2_norm(B["d1"]) ** 2,
        "invZp2_dap2_invZp_L2sq": grid.l2_norm(pw(-2.0) * B["d2"]) ** 2,
        "Ztapbar_L2sq": grid.l2_norm(B["Ztb1"]) ** 2,
        "invZp2_dap_Ztapbar_L2sq": grid.l2_norm(pw(-2.0) * B["Ztb2"]) ** 2,
        "invZp3_dap_Ztapbar_Hhalfsq": grid.hhalf_norm(pw(-3.0) * B["Ztb2"]) ** 2,
    }
    return EnergyReport("high", state.time, comp)


def energy_aux(state):
    """Six-term auxiliary energy for the zero-surface-tension solution."""
    (B,) = _state_blocks(state)
    grid, pw = B["grid"], _powers(B)
    _, (sup_Zp12_d1,) = _sup_norms(grid, (), (B,))
    comp = {
        "Zp12_dap_invZp_Linfsq": sup_Zp12_d1 ** 2,
        "invZp12_dap2_invZp_L2sq": grid.l2_norm(pw(-0.5) * B["d2"]) ** 2,
        "invZp52_dap3_invZp_L2sq": grid.l2_norm(pw(-2.5) * B["d3"]) ** 2,
        "invZp12_dap_Ztapbar_L2sq": grid.l2_norm(pw(-0.5) * B["Ztb2"]) ** 2,
        "invZp52_dap2_Ztapbar_L2sq": grid.l2_norm(pw(-2.5) * B["Ztb3"]) ** 2,
        "invZp72_dap2_Ztapbar_Hhalfsq": grid.hhalf_norm(pw(-3.5) * B["Ztb3"]) ** 2,
    }
    return EnergyReport("aux", state.time, comp)


# the families of one solution, by name: those that `simulate` records and
# that [output] families may list
STATE_FAMILIES = {"sigma": energy_sigma, "high": energy_high, "aux": energy_aux}


# term names of energy_sigma reused verbatim for the sigma-weighted part of
# the difference energy (solution a only), in the order of the display
_DELTA1_SIGMA_TERMS = (
    "sigma16_Zp12_dap_invZp_L2p6",
    "sigma12_Zp12_dap_invZp_Linfsq",
    "sigma12_invZp12_dap2_invZp_L2sq",
    "sigma12_invZp32_dap2_invZp_Hhalfsq",
    "sigma_dap_Theta_Hhalfsq",
    "sigma_invZp_dap3_invZp_L2sq",
    "sigma_invZp2_dap3_invZp_Hhalfsq",
)
_DELTA2_SIGMA_TERMS = (
    "sigma12_invZp12_dap_Ztapbar_L2sq",
    "sigma12_invZp52_dap2_Ztapbar_L2sq",
)


def energy_delta(pair):
    """Full difference energy for a (sigma, 0) solution pair.

    Delta-terms subtract in Lagrangian labels through the composed map
    (Delta(f) = f_a - f_b o htilde); the htilde-terms live on the composed
    map itself, and the coupling term is sigma_a times the auxiliary energy
    of the zero-surface-tension solution.
    """
    a, b = pair.state_a, pair.state_b
    grid = a.grid
    Ba, Bb = _state_blocks(a, b)
    pwa, pwb = _powers(Ba), _powers(Bb)
    htil = pair.map_tilde

    # all fields of b go through htilde in one stacked pull-back
    fields_a = (Ba["omega"], Ba["d1"], Ba["inv"] * Ba["d1"], Ba["Ztb1"], pwa(-2.0) * Ba["Ztb2"])
    fields_b = (Bb["omega"], Bb["d1"], Bb["inv"] * Bb["d1"], Bb["Ztb1"], pwb(-2.0) * Bb["Ztb2"])
    pulled = compose_map_apply(grid, np.stack(fields_b + (1.0 / np.abs(b.Zp),)), htil)
    d_omega, d_d1, d_inv_d1, d_Ztb1, d_Ztb2 = (fa - fb for fa, fb in zip(fields_a, pulled))
    util_inv_abs_b = pulled[-1].real

    abs_a = np.abs(a.Zp)
    htil_ap = htil.jacobian()
    dev_j = htil_ap - 1.0

    # the record's one sup_norm call: these three rows, and the kept sups of
    # a and b that energy_sigma(a) and energy_aux(b) read below
    (sup_d_omega, sup_dev_j, sup_abs_ratio), _ = _sup_norms(
        grid, (d_omega, dev_j, abs_a * util_inv_abs_b - 1.0), (Ba, Bb)
    )
    comp = {
        "d0_delta_omega_Linfsq": sup_d_omega ** 2,
        "d0_htilap_minus1_LinfHhalfsq": (sup_dev_j + grid.hhalf_norm(dev_j)) ** 2,
        "d0_Dapa_htilap_minus1_L2sq": grid.l2_norm(grid.deriv(dev_j) / abs_a) ** 2,
        "d0_absZpa_Util_invabsZpb_minus1_Linfsq": sup_abs_ratio ** 2,
        "d1_delta_dap_invZp_L2sq": grid.l2_norm(d_d1) ** 2,
        "d1_delta_invZp_dap_invZp_Hhalfsq": grid.hhalf_norm(d_inv_d1) ** 2,
    }
    sig_a = energy_sigma(a)
    for name in _DELTA1_SIGMA_TERMS:
        comp["d1_a_" + name] = sig_a.components[name]
    comp["d2_delta_Ztapbar_L2sq"] = grid.l2_norm(d_Ztb1) ** 2
    comp["d2_delta_invZp2_dap_Ztapbar_L2sq"] = grid.l2_norm(d_Ztb2) ** 2
    for name in _DELTA2_SIGMA_TERMS:
        comp["d2_a_" + name] = sig_a.components[name]
    comp["coupling_sigma_aux_b"] = a.sigma * energy_aux(b).total
    return EnergyReport("delta", pair.time, comp)


def f_delta_norm(pair, derived_a=None, derived_b=None):
    """Uniqueness-grade difference norm in the conformal frame of solution a.

    Seven first-power components: H^1/2 of Delta(Z_t), Delta(Z_tt),
    Delta(1/Z_ap); L2 of Delta(h_alpha o h^-1), Delta(D_a Z_t), Delta(A1)
    and Delta(b_ap).

    With k = h^{-1}, the map the pair holds, h_alpha o h^{-1} = 1 / k_alpha
    on the grid, so Delta(h_alpha o h^-1) is 1/k_a,alpha -
    (1/k_b,alpha) o htilde: one more row of the pull-back through htilde,
    and no inverse is built beyond the one of htilde.  Unless both
    derived_a and derived_b are given, the compute_derived fields of the
    two solutions come from one derive_states pass.
    """
    a, b = pair.state_a, pair.state_b
    grid = a.grid
    if derived_a is None or derived_b is None:
        derived_a, derived_b = derive_states((a, b))

    def fields(st, der, k):
        return (st.Zt, der.Ztt, 1.0 / st.Zp, der.Ztap / st.Zp, der.A1, der.b_ap,
                1.0 / k.jacobian())

    # all fields of b go through htilde in one stacked pull-back; the real
    # ones (A1, b_ap, 1/k_alpha) keep the real part
    fields_a = fields(a, derived_a, pair.k_a)
    pulled = compose_map_apply(grid, np.stack(fields(b, derived_b, pair.k_b)), pair.map_tilde)
    d_Zt, d_Ztt, d_invZp, d_DapZt, d_A1, d_bap, d_halpha = (
        fa - (fb.real if np.isrealobj(fa) else fb) for fa, fb in zip(fields_a, pulled)
    )
    comp = {
        "fd_delta_Zt_Hhalf": grid.hhalf_norm(d_Zt),
        "fd_delta_Ztt_Hhalf": grid.hhalf_norm(d_Ztt),
        "fd_delta_invZp_Hhalf": grid.hhalf_norm(d_invZp),
        "fd_delta_halpha_L2": grid.l2_norm(d_halpha),
        "fd_delta_DapZt_L2": grid.l2_norm(d_DapZt),
        "fd_delta_A1_L2": grid.l2_norm(d_A1),
        "fd_delta_bap_L2": grid.l2_norm(d_bap),
    }
    return EnergyReport("f_delta", pair.time, comp)


def write_reports_csv(path, reports):
    """One CSV per family: header comment with the schema version, then one
    row per time with the named components in stable order."""
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to write")
    family = reports[0].family
    with open(path, "w") as fh:
        fh.write(f"# crestwave-csv v1 family={family}\n")
        fh.write(reports[0].csv_header() + "\n")
        for r in reports:
            if r.family != family:
                raise ValueError("mixed families in one CSV")
            fh.write(r.csv_row() + "\n")
