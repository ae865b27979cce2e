"""Standing-wave lens: Rabi profile, optical potential, focal length, gamma map."""
import math

import pytest
from numpy.testing import assert_allclose

import pmcorr as pc

LENS = pc.LensSpec(omega0=2e8, wavelength=532e-9, detuning=0.0, v_cm=100.0, t_int=1e-6)


class TestRabiProfile:
    def test_peak(self):
        assert pc.rabi_profile(LENS, 0.0, 0.0) == LENS.omega0

    def test_cosine_node(self):
        for z in (0.0, 1e-4, -3e-5):
            assert abs(pc.rabi_profile(LENS, LENS.wavelength / 4, z)) < 1e-8 * LENS.omega0

    def test_underflowed_envelope_width_named(self):
        lens = pc.LensSpec(omega0=2e8, wavelength=532e-9, detuning=0.0, v_cm=1e-300, t_int=1e-6)
        with pytest.raises(ArithmeticError, match=r"\(v_cm\*t_int\)\^2 underflows to 0"):
            pc.rabi_profile(lens, 0.0, 0.0)

    def test_overflowed_envelope_width_named(self):
        lens = pc.LensSpec(omega0=2e8, wavelength=532e-9, detuning=0.0, v_cm=1e200, t_int=1.0)
        with pytest.raises(OverflowError, match=r"\(v_cm\*t_int\)\^2 overflows the float range: "
                           r"v_cm\*t_int needs to stay below ~1\.3e\+154 m"):
            pc.rabi_profile(lens, 0.0, 0.0)

    def test_longitudinal_envelope(self):
        z = LENS.v_cm * LENS.t_int
        assert_allclose(pc.rabi_profile(LENS, 0.0, z), LENS.omega0 * math.exp(-math.pi), rtol=1e-12)

    def test_periodic_and_even(self):
        x, z = 1.3e-7, 4e-5
        assert_allclose(
            pc.rabi_profile(LENS, x + LENS.wavelength, z), pc.rabi_profile(LENS, x, z), rtol=1e-9
        )
        assert pc.rabi_profile(LENS, x, z) == pc.rabi_profile(LENS, x, -z)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            pc.LensSpec(omega0=0.0, wavelength=532e-9, detuning=0.0, v_cm=100.0, t_int=1e-6)
        with pytest.raises(ValueError):
            pc.LensSpec(omega0=2e8, wavelength=532e-9, detuning=0.0, v_cm=-1.0, t_int=1e-6)

    @pytest.mark.parametrize("field", ["omega0", "wavelength", "v_cm", "t_int", "detuning"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_spec_rejects_non_finite(self, field, value):
        fields = dict(omega0=2e8, wavelength=532e-9, detuning=0.0, v_cm=100.0, t_int=1e-6)
        with pytest.raises(ValueError, match=f"^{field} must be "):
            pc.LensSpec(**{**fields, field: value})

    @pytest.mark.parametrize("position", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                                          (0.0, -math.inf)])
    def test_rejects_non_finite_position(self, position):
        with pytest.raises(ValueError, match="^position must be finite"):
            pc.rabi_profile(LENS, *position)
        with pytest.raises(ValueError, match="^position must be finite"):
            pc.optical_potential(LENS, *position)


class TestOpticalPotential:
    def test_node_on_resonance(self):
        pot = pc.optical_potential(LENS, LENS.wavelength / 4, 0.0)
        assert abs(pot.full) < 1e-6

    def test_peak_on_resonance(self):
        pot = pc.optical_potential(LENS, 0.0, 0.0)
        assert_allclose(pot.full, -LENS.omega0 / 2, rtol=1e-12)

    def test_harmonic_matches_small_x(self):
        for frac in (-1.0 / 50, -1.0 / 80, 1.0 / 120, 1.0 / 50):
            x = frac * LENS.wavelength
            pot = pc.optical_potential(LENS, x, 0.0)
            pot0 = pc.optical_potential(LENS, 0.0, 0.0)
            assert_allclose(pot.full - pot0.full, pot.harmonic, rtol=0.01)


class TestFocalLength:
    def test_on_resonance_form(self):
        lam_db = pc.de_broglie(1.2e-24, LENS.v_cm)
        expected = LENS.wavelength**2 / (math.pi * LENS.omega0 * LENS.t_int * lam_db)
        assert_allclose(pc.focal_length(LENS, 1.2e-24), expected, rtol=1e-12)

    def test_rabi_scaling(self):
        strong = pc.LensSpec(omega0=2 * LENS.omega0, wavelength=LENS.wavelength,
                             detuning=0.0, v_cm=LENS.v_cm, t_int=LENS.t_int)
        assert_allclose(pc.focal_length(strong, 1.2e-24), pc.focal_length(LENS, 1.2e-24) / 2,
                        rtol=1e-12)

    def test_detuning_doubles(self):
        detuned = pc.LensSpec(omega0=LENS.omega0, wavelength=LENS.wavelength,
                              detuning=math.sqrt(3.0) * LENS.omega0, v_cm=LENS.v_cm,
                              t_int=LENS.t_int)
        assert_allclose(pc.focal_length(detuned, 1.2e-24), 2 * pc.focal_length(LENS, 1.2e-24),
                        rtol=1e-12)

    def test_monotonicity(self):
        base = pc.focal_length(LENS, 1.2e-24)
        longer = pc.LensSpec(omega0=LENS.omega0, wavelength=LENS.wavelength, detuning=0.0,
                             v_cm=LENS.v_cm, t_int=2 * LENS.t_int)
        assert pc.focal_length(longer, 1.2e-24) < base
        detuned = pc.LensSpec(omega0=LENS.omega0, wavelength=LENS.wavelength, detuning=1e8,
                              v_cm=LENS.v_cm, t_int=LENS.t_int)
        assert pc.focal_length(detuned, 1.2e-24) > base


class TestDeBroglie:
    def test_fullerene_beam(self):
        assert_allclose(pc.de_broglie(1.2e-24, 100.0), 5.52e-12, rtol=1e-3)

    def test_speed_scaling(self):
        assert_allclose(pc.de_broglie(1.2e-24, 50.0), 2 * pc.de_broglie(1.2e-24, 100.0), rtol=1e-15)

    def test_mass_scaling(self):
        assert_allclose(pc.de_broglie(0.6e-24, 100.0), 2 * pc.de_broglie(1.2e-24, 100.0), rtol=1e-15)

    def test_underflowed_momentum_named(self):
        with pytest.raises(ArithmeticError, match=r"m\*v_cm underflows to 0 \(mass=1e-300 kg, v_cm=1e-30 m/s\)"):
            pc.de_broglie(1e-300, 1e-30)


class TestGammaFromCurvature:
    def test_flat_wavefront_limit(self):
        assert abs(pc.gamma_from_curvature(1.2e-24, 100.0, 1e12, 7.8e-9)) < 1e-12
        assert pc.gamma_from_curvature(1.2e-24, 100.0, math.inf, 7.8e-9) == 0.0

    @pytest.mark.parametrize("radius", [0.5, -0.5, 2.0, -1e-3])
    def test_sign_convention(self, radius):
        g = pc.gamma_from_curvature(1.2e-24, 100.0, radius, 7.8e-9)
        assert math.copysign(1.0, g) == math.copysign(1.0, radius)

    def test_width_quadratic(self):
        g1 = pc.gamma_from_curvature(1.2e-24, 100.0, 0.3, 7.8e-9)
        g2 = pc.gamma_from_curvature(1.2e-24, 100.0, 0.3, 2 * 7.8e-9)
        assert_allclose(g2, 4 * g1, rtol=1e-12)

    def test_inverse_radius_law(self):
        g1 = pc.gamma_from_curvature(1.2e-24, 100.0, 0.3, 7.8e-9)
        g2 = pc.gamma_from_curvature(1.2e-24, 100.0, 0.6, 7.8e-9)
        assert_allclose(g1 * 0.3, g2 * 0.6, rtol=1e-12)

    def test_rejects_zero_radius(self):
        with pytest.raises(ValueError):
            pc.gamma_from_curvature(1.2e-24, 100.0, 0.0, 7.8e-9)

    def test_rejects_nan_radius(self):
        with pytest.raises(ValueError, match="^curvature radius"):
            pc.gamma_from_curvature(1.2e-24, 100.0, math.nan, 7.8e-9)
