from qgroupoid.axb import axb_iso_phi, axb_relation_suite, build_axb
from qgroupoid.deform import twistor_validate


def test_relation_suite_n2():
    rep = axb_relation_suite(2, 2, table_range=2)
    assert rep.ok(), rep.first_failure()


def test_relation_suite_full():
    bundle = build_axb(4, 4)
    rep = axb_relation_suite(4, 4, bundle=bundle)
    assert rep.ok(), rep.first_failure()


def test_iso_phi():
    rep = axb_iso_phi(3, 3)
    assert rep.ok(), rep.first_failure()


def test_iso_phi_full():
    rep = axb_iso_phi(4, 4)
    assert rep.ok(), rep.first_failure()


def test_twistor_validate_small_orders():
    for n in (1, 2, 3):
        bundle = build_axb(n, 2)
        rep = twistor_validate(bundle.dfa)
        assert rep.ok(), (n, rep.first_failure())


def test_relation_suite_small_orders():
    for n, d in ((1, 2), (3, 3)):
        rep = axb_relation_suite(n, d, table_range=2)
        assert rep.ok(), (n, d, rep.first_failure())
        rep = axb_iso_phi(n, d)
        assert rep.ok(), (n, d, rep.first_failure())


def test_relation_suite_top_order():
    bundle = build_axb(5, 5)
    rep = axb_relation_suite(5, 5, bundle=bundle, table_range=2)
    assert rep.ok(), rep.first_failure()
    rep = axb_iso_phi(5, 5, bundle=bundle)
    assert rep.ok(), rep.first_failure()


def test_truncation_functoriality():
    """Computing at a higher order and discarding the top coefficients
    must agree with computing at the lower order, all through the stack."""
    from qgroupoid.jets import jet_product_eval, xi_functional
    from qgroupoid.scalars import CPoly
    b3 = build_axb(3, 3)
    b4 = build_axb(4, 3)
    x2 = CPoly.var(2, 1)
    assert b4.dfa.source(x2).coeffs[:4] == b3.dfa.source(x2).coeffs
    assert b4.dfa.target(x2).coeffs[:4] == b3.dfa.target(x2).coeffs
    for beta in ((1, 0), (0, 1), (1, 1), (2, 1)):
        l4 = b4.dfa.lift_mono(((0, 0), beta))
        l3 = b3.dfa.lift_mono(((0, 0), beta))
        assert l4.coeffs[:4] == l3.coeffs
        for ctx4, ctx3 in ((b4.left, b3.left), (b4.right, b3.right)):
            de1_4, de2_4 = xi_functional(ctx4, 0), xi_functional(ctx4, 1)
            de1_3, de2_3 = xi_functional(ctx3, 0), xi_functional(ctx3, 1)
            v4 = jet_product_eval(ctx4, de1_4, de2_4, beta)
            v3 = jet_product_eval(ctx3, de1_3, de2_3, beta)
            for n in range(v3.val, min(v3.top, 3) + 1):
                assert v4.coeff(n) == v3.coeff(n), (beta, n)


def test_deformed_axiom_suite_full_order():
    from qgroupoid.deform import deformed_axiom_suite
    bundle = build_axb(4, 4)
    rep = deformed_axiom_suite(bundle.dfa, sample_degree=2)
    assert rep.ok(), rep.first_failure()
