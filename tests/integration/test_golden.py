"""Golden regression tests: exact addresses, frozen forever.

The Section-4 addressing defines a *specific* bijection; any change to
the field modulus table, the S-set ordering, the coset canonicalization
or the P_gamma slot order silently remaps every physical address and
invalidates stored data.  These constants pin the layout.  If a change
legitimately redefines the layout, this file must be updated in the
same commit -- loudly.
"""

import numpy as np

from repro.core.scheme import PPScheme


class TestGoldenAddresses:
    def test_n3_layout(self, scheme_2_3):
        assert scheme_2_3.locate(0) == [(1, 0), (0, 0), (2, 0)]
        assert scheme_2_3.locate(41) == [(0, 2), (5, 0), (6, 0)]
        assert scheme_2_3.locate(83) == [(53, 2), (3, 1), (14, 3)]

    def test_n5_layout(self, scheme_2_5):
        assert scheme_2_5.locate(4242) == [(584, 15), (613, 13), (9, 10)]

    def test_n7_layout(self):
        s = PPScheme(2, 7)
        assert s.locate(123456) == [(2338, 39), (6921, 47), (9182, 6)]

    def test_n5_unrank_matrices(self, scheme_2_5):
        a = scheme_2_5.addressing
        assert a.unrank(0) == (0, 1, 1, 0)
        assert a.unrank(100) == (0, 30, 15, 1)
        assert a.unrank(5455) == (24, 7, 13, 1)

    def test_module_rows(self, scheme_2_5):
        mods = scheme_2_5.placement(np.array([0, 1, 2]))
        assert mods.tolist() == [[1, 0, 2], [463, 462, 492], [925, 924, 947]]

    def test_seeded_request_set(self, scheme_2_5):
        idx = scheme_2_5.random_request_set(8, seed=42)
        assert idx.tolist() == [468, 3804, 4682, 3568, 2361, 2392, 486, 4218]

    def test_field_moduli_frozen(self):
        from repro.gf.gf2m import GF2m

        assert GF2m.get(5).modulus == 0b100101
        assert GF2m.get(10).modulus == 0b10000001001
        assert GF2m.get(14).modulus == 0b100010001000011
