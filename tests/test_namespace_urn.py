"""Tests for URN encoding/decoding of resource names and interest areas."""

import pytest

from repro.errors import URNError
from repro.namespace import (
    InterestArea,
    InterestAreaURN,
    InterestCell,
    NamedURN,
    decode_interest_area,
    encode_interest_area,
    parse_urn,
    parse_urn_cached,
)
from repro.namespace.urn import _urn_parts


class TestNamedURNs:
    def test_parse_named_urn(self):
        urn = parse_urn("urn:ForSale:Portland-CDs")
        assert isinstance(urn, NamedURN)
        assert urn.namespace == "ForSale"
        assert urn.name == "Portland-CDs"
        assert str(urn) == "urn:ForSale:Portland-CDs"

    def test_parse_tracklisting_urn(self):
        urn = parse_urn("urn:CD:TrackListings")
        assert isinstance(urn, NamedURN)
        assert urn.name == "TrackListings"

    def test_invalid_urns_rejected(self):
        with pytest.raises(URNError):
            parse_urn("not-a-urn")
        with pytest.raises(URNError):
            parse_urn("urn:only-namespace")


class TestInterestAreaURNs:
    def test_paper_example_encoding(self):
        area = InterestArea.of(
            ["USA/OR/Portland", "Furniture"], ["USA/WA/Vancouver", "Furniture"]
        )
        encoded = encode_interest_area(area)
        assert encoded == "(USA.OR.Portland,Furniture)+(USA.WA.Vancouver,Furniture)"

    def test_roundtrip(self):
        area = InterestArea.of(["USA/OR/Portland", "Music/CDs"], ["France", "*"])
        assert decode_interest_area(encode_interest_area(area)) == area

    def test_parse_interest_area_urn(self):
        urn = parse_urn("urn:InterestArea:(USA.OR.Portland,Music.CDs)")
        assert isinstance(urn, InterestAreaURN)
        assert urn.area == InterestArea.of(["USA/OR/Portland", "Music/CDs"])

    def test_for_area_and_back(self):
        area = InterestArea.of(["USA/OR", "SportingGoods/GolfClubs"])
        urn = InterestAreaURN.for_area(area)
        parsed = parse_urn(str(urn))
        assert isinstance(parsed, InterestAreaURN)
        assert parsed.area == area

    def test_top_coordinate_roundtrip(self):
        area = InterestArea.of(["USA/OR/Portland", "*"])
        assert decode_interest_area(encode_interest_area(area)) == area

    def test_empty_area_rejected(self):
        with pytest.raises(URNError):
            encode_interest_area(InterestArea())

    def test_malformed_encodings_rejected(self):
        with pytest.raises(URNError):
            decode_interest_area("")
        with pytest.raises(URNError):
            decode_interest_area("no-parens")
        with pytest.raises(URNError):
            decode_interest_area("(USA,)Portland")
        with pytest.raises(URNError):
            decode_interest_area("(USA,,Furniture)")


class TestParseOncePerProcess:
    """``parse_urn_cached``: what ``parse_urn`` returns, parsed once per text."""

    AREA = "urn:InterestArea:(USA.OR.Portland,Music.CDs)+(USA.WA,*)"

    def test_two_callers_never_share_an_area(self):
        first, second = parse_urn_cached(self.AREA), parse_urn_cached(self.AREA)
        assert first == second == parse_urn(self.AREA)
        assert first.area is not second.area
        first.area.add(InterestCell.of("France", "*"))
        assert second.area == parse_urn(self.AREA).area  # one caller's area is not another's
        assert parse_urn_cached(self.AREA).area == parse_urn(self.AREA).area  # nor the memo's

    def test_the_text_is_parsed_once(self):
        text = "urn:InterestArea:(USA.OR.Salem,Furniture)+(Canada.BC,Music)"  # no other test reads it
        before = _urn_parts.cache_info().misses
        for _ in range(5):
            assert isinstance(parse_urn_cached(text), InterestAreaURN)
        assert _urn_parts.cache_info().misses == before + 1

    def test_a_named_urn_is_what_parse_urn_returns(self):
        parsed = parse_urn_cached("urn:ForSale:Portland-CDs")
        assert isinstance(parsed, NamedURN) and parsed == parse_urn("urn:ForSale:Portland-CDs")

    @pytest.mark.parametrize(
        "text", ["not-a-urn", "urn:only-namespace", "urn:InterestArea:((USA", "urn:InterestArea:(USA.OR,)", ""]
    )
    def test_a_malformed_urn_still_yields_none(self, text):
        with pytest.raises(URNError):
            parse_urn(text)
        assert parse_urn_cached(text) is None
        assert parse_urn_cached(text) is None  # memoized as unparseable, not as an error

    def test_the_memo_is_bounded(self):
        assert _urn_parts.cache_info().maxsize == 4096
