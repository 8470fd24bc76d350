import json
from fractions import Fraction

import pytest

import slicealg as sa
from slicealg.cli import main
from slicealg.parsing import ParseError, format_element, parse_element, parse_poly

H = sa.make_builtin("H")
SO = sa.make_builtin("SO")
R3 = sa.make_builtin("cl-0-3")
R4 = sa.make_builtin("cl-0-4")


class TestElementParsing:
    def test_basic(self):
        assert parse_element("1+2*i", H) == H.element([1, 2, 0, 0])
        assert parse_element("1-e123", R3).coeffs == (1, 0, 0, 0, 0, 0, 0, -1)
        assert parse_element("3/2*l", SO).coeffs[4] == Fraction(3, 2)

    def test_whitespace_and_juxtaposition(self):
        assert parse_element(" 1 + 2 * i ", H) == parse_element("1+2i", H)

    def test_negative_leading(self):
        assert parse_element("-i+3", H) == H.element([3, -1, 0, 0])

    def test_unknown_basis(self):
        with pytest.raises(ParseError):
            parse_element("1+2*q", H)

    def test_position_reported(self):
        with pytest.raises(ParseError) as exc:
            parse_element("1+$", H)
        assert exc.value.position == 2

    def test_x_rejected_in_element(self):
        with pytest.raises(ParseError):
            parse_element("x+1", H)

    def test_float_mode(self):
        x = parse_element("0.5+1.25*i", H, mode="float")
        assert x.mode == "float" and x.coeffs[0] == 0.5 and x.coeffs[1] == 1.25
        with pytest.raises(ParseError):
            parse_element("0.5", H)  # decimals need float mode

    def test_roundtrip_fixtures(self):
        fixtures = [
            ("1+2*i", H), ("-1/2*j+k", H), ("0", H),
            ("1-e123", R3), ("e12", R3), ("2-3*e1+1/3*e23", R3),
            ("3/2*l", SO), ("1+li", SO), ("-l", SO),
        ]
        for text, alg in fixtures:
            x = parse_element(text, alg)
            assert parse_element(format_element(x), alg) == x


class TestPolyParsing:
    def test_expansion_example(self):
        f = parse_poly("(x-e1)*(x-e2)", R3)
        coeffs = f.stem.coeffs
        e1 = R3.basis_element(1)
        e2 = R3.basis_element(2)
        e12 = R3.basis_element(4)
        assert coeffs == (e12, -(e1 + e2), R3.one())

    def test_power(self):
        f = parse_poly("x^2+1", H)
        assert f.stem.coeffs == (H.one(), H.zero(), H.one())

    def test_r4_expansion(self):
        f = parse_poly("(x-e4)*(1+e123)", R4)
        e4 = R4.basis_element(R4.basis_index("e4"))
        e123 = R4.basis_element(R4.basis_index("e123"))
        e1234 = R4.basis_element(R4.basis_index("e1234"))
        assert f.stem.coeffs == (-e4 + e1234, R4.one() + e123)

    def test_noncommutative_order_respected(self):
        f = parse_poly("(x-i)*(x-j)", H)
        g = parse_poly("(x-j)*(x-i)", H)
        assert f != g
        assert f.stem.coeffs[0] == H.basis_element(3)   # ij = k
        assert g.stem.coeffs[0] == -H.basis_element(3)  # ji = -k

    def test_variable_coefficient_commutes(self):
        assert parse_poly("x*i", H) == parse_poly("i*x", H)

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_poly("(x-e1", R3)
        with pytest.raises(ParseError):
            parse_poly("x^-1", H)
        with pytest.raises(ParseError):
            parse_poly("x^1/2", H)


class TestCLI:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_zeros_r4_example(self, capsys):
        code, out, _ = self.run(capsys, "zeros", "--algebra", "R4",
                                "(x-e4)*(1+e123)", "--json")
        assert code == 0
        data = json.loads(out)
        hits = [s for s in data["spheres"]
                if s["alpha"] == "0" and s["beta"] == "1"]
        assert hits and hits[0]["kind"] == "Point"
        assert hits[0]["witnesses"] == ["e4"]

    def test_zeros_tame(self, capsys):
        code, out, _ = self.run(capsys, "zeros", "--algebra", "H",
                                "(x-i)*(x-j)", "--json")
        data = json.loads(out)
        assert data["spheres"][0]["witnesses"] == ["i"]
        assert data["spheres"][0]["multiplicity"] == 2

    def test_verify_so_alt(self, capsys):
        code, out, _ = self.run(capsys, "verify", "--algebra", "SO_ALT", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["compatible"] is False
        assert any(w.get("witness") == "2*l" for w in data["witnesses"])

    def test_eval(self, capsys):
        code, out, _ = self.run(capsys, "eval", "--algebra", "H",
                                "x^2+1", "--at", "i")
        assert code == 0 and out.strip() == "0"

    def test_mul(self, capsys):
        code, out, _ = self.run(capsys, "mul", "--algebra", "R3", "e1", "e2")
        assert code == 0 and out.strip() == "e12"

    def test_conj_and_normal(self, capsys):
        code, out, _ = self.run(capsys, "conj", "--algebra", "H", "x-i")
        assert code == 0 and out.strip() == "i+x"
        code, out, _ = self.run(capsys, "normal", "--algebra", "H", "x-i")
        assert code == 0 and out.strip() == "1+x^2"

    def test_inv_and_quot(self, capsys):
        code, out, _ = self.run(capsys, "inv", "--algebra", "H", "x-i",
                                "--at", "2")
        assert code == 0 and out.strip() == "2/5+1/5*i"
        code, out, _ = self.run(capsys, "quot", "--algebra", "H", "x-i",
                                "x-i", "--at", "2")
        assert code == 0 and out.strip() == "1"

    def test_predict(self, capsys):
        code, out, _ = self.run(capsys, "predict-product-zeros", "--algebra",
                                "R4", "x-e1", "x-e2", "--sphere", "0,1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["predicted"]["witnesses"] == ["e1"]
        assert data["agrees"] is True

    def test_algebra_info(self, capsys):
        code, out, _ = self.run(capsys, "algebra", "--algebra", "SO", "--json")
        data = json.loads(out)
        assert data["dim"] == 8 and data["compatible"] is True
        assert data["nucleus_dim"] == 1

    def test_parse_error_exit_2(self, capsys):
        code, _, err = self.run(capsys, "eval", "--algebra", "H",
                                "x^2+$", "--at", "i")
        assert code == 2 and "parse error" in err

    def test_domain_error_exit_1(self, capsys):
        code, _, err = self.run(capsys, "inv", "--algebra", "H", "x-i",
                                "--at", "j")
        assert code == 1 and "error" in err

    def test_unknown_algebra_exit_1(self, capsys):
        code, _, err = self.run(capsys, "algebra", "--algebra", "nope")
        assert code == 1

    def test_json_stability(self, capsys):
        _, out1, _ = self.run(capsys, "zeros", "--algebra", "H",
                              "(x-i)*(x-j)", "--json")
        _, out2, _ = self.run(capsys, "zeros", "--algebra", "H",
                              "(x-i)*(x-j)", "--json")
        assert out1 == out2
        data = json.loads(out1)
        assert list(data.keys()) == sorted(data.keys())

    def test_float_flag(self, capsys):
        code, out, _ = self.run(capsys, "eval", "--algebra", "H",
                                "x^2", "--at", "0.5", "--float")
        assert code == 0 and out.strip() == "0.25"

    def test_quot_nonreal_point(self, capsys):
        code, out, _ = self.run(capsys, "quot", "--algebra", "H", "x-i",
                                "x-j", "--at", "1+2*k", "--json")
        assert code == 0
        val = json.loads(out)["value"]
        # cross-check through the library route
        f = parse_poly("x-i", H)
        g = parse_poly("x-j", H)
        x = parse_element("1+2*k", H)
        import slicealg as sa2
        assert val == sa2.format_element(sa2.quotient_eval(f, g, x))

    def test_eval_outside_cone_exit_1(self, capsys):
        code, _, err = self.run(capsys, "eval", "--algebra", "SH", "x^2",
                                "--at", "e1")
        assert code == 1 and "error" in err

    def test_zeros_float_mode(self, capsys):
        code, out, _ = self.run(capsys, "zeros", "--algebra", "H",
                                "(x-i)*(x-j)", "--json", "--float")
        assert code == 0
        data = json.loads(out)
        assert data["spheres"][0]["kind"] == "Point"

    def test_zero_denominator_exit_2(self, capsys):
        code, _, err = self.run(capsys, "eval", "--algebra", "H", "1/0",
                                "--at", "i")
        assert code == 2 and err.startswith("parse error:")
        assert len(err.strip().splitlines()) == 1
        with pytest.raises(ParseError) as exc:
            parse_element("i+3/0", H)
        assert exc.value.position == 2
        code, _, err = self.run(capsys, "eval", "--algebra", "H", "1.5/2",
                                "--at", "1", "--float")
        assert code == 2 and err.startswith("parse error:")

    def test_zeros_float_so_witness(self, capsys):
        code, out, _ = self.run(capsys, "zeros", "--algebra", "SO", "x-i",
                                "--float")
        assert code == 0
        assert "sphere (0, 1): Point witnesses: i" in out
