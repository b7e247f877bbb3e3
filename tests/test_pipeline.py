import csv
import datetime as dt
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import START, make_series
from demandcast import (
    DataError,
    ImputationStrategy,
    InsufficientDataError,
    RawRecord,
    Records,
    assemble,
    build_all,
    impute,
    parse_records,
)
from demandcast.pipeline import (
    STRATEGY_LABELS,
    STRATEGY_ORDER,
    _classify_column,
    _parse_date,
    _parse_dates,
    _spans,
    missing_dates,
    write_bundle_csv,
)

FULL_HEADER = (
    "Date,Max.Demand met during the day(MW),Shortage during maximum Demand(MW),"
    "Energy Met (MU),Drawal Schedule (MU),OD(+)/UD(-)(MU),Max OD(MW),Energy Shortage (MU)"
)


def csv_bytes(*rows: str) -> bytes:
    return ("\n".join(rows) + "\n").encode()


def strptime_date(cell: str) -> dt.date | None:
    """Date cell by ``strptime`` alone, the parser's defining formats."""
    for fmt in ("%d/%m/%Y", "%Y-%m-%d"):
        try:
            return dt.datetime.strptime(cell.strip(), fmt).date()
        except ValueError:
            continue
    return None


def date_like(day: int, month: int, year: int, fmt: str, sep: str, pad: str) -> str:
    return pad + sep.join((fmt.format(day), fmt.format(month), f"{year:04d}")) + pad


def reference_float(cell: str) -> float | None:
    try:
        v = float(cell.strip().replace(",", ""))
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def reference_records(text: str) -> list[RawRecord]:
    """Row-by-row reference parse of a well-formed export."""
    header, *rows = list(csv.reader(io.StringIO(text)))
    columns = [_classify_column(cell) for cell in header]
    date_idx, demand_idx = columns.index("date"), columns.index("max_demand_mw")
    records = []
    for row in rows:
        if not any(cell.strip() for cell in row):
            continue
        demand = reference_float(row[demand_idx])
        extras = {}
        for j, key in enumerate(columns):
            if key is not None and j not in (date_idx, demand_idx) and j < len(row):
                extras[key] = reference_float(row[j])
        records.append(RawRecord(
            date=strptime_date(row[date_idx]),
            max_demand_mw=demand if demand is not None and demand > 0 else None,
            extras=extras,
        ))
    return records


def generated_export(n_days: int, seed: int) -> str:
    """An 8-column DD/MM/YYYY export with empty, non-positive, non-finite,
    thousands-separated and absent cells."""
    rng = np.random.default_rng(seed)
    lines = [FULL_HEADER]
    start = dt.date(2013, 4, 1)
    odd = ["", "0", "-3.5", "nan", "inf", "n/a", '"4,112.5"', " 3987 "]
    for i in range(n_days):
        if rng.random() < 0.01:
            continue
        cells = [f"{v:.2f}" for v in rng.normal(4000.0, 300.0, size=7)]
        for j in np.flatnonzero(rng.random(7) < 0.02):
            cells[j] = odd[rng.integers(len(odd))]
        lines.append(",".join([(start + dt.timedelta(days=i)).strftime("%d/%m/%Y")] + cells))
    return "\n".join(lines) + "\n"


def unquoted(text: str) -> str:
    """``text`` with its quoted thousands-separated cells written without the separator."""
    text = text.replace('"4,112.5"', "4112.5")
    assert '"' not in text
    return text


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")

# forms the parser accepts for every date: zero-padded and single-digit
# DD/MM/YYYY, ISO, padded with whitespace or NBSP, and a year in non-ASCII
# digits (which strptime reads there, but not in the day or month)
DATE_FORMS = (
    lambda d: f"{d.day:02d}/{d.month:02d}/{d.year:04d}",
    lambda d: f"{d.day}/{d.month}/{d.year}",
    dt.date.isoformat,
    lambda d: f" {d.day:02d}/{d.month:02d}/{d.year:04d}\u00a0",
    lambda d: f"\t{d.isoformat()} ",
    lambda d: f"{d.day:02d}/{d.month:02d}/{str(d.year).translate(ARABIC_INDIC)}",
)
VALUE_CELLS = (
    "", "0", "-3.5", "nan", "inf", "-inf", "4,112.5", "1_000", " 3987 ", "\u00a04112.5\u00a0",
    "n/a", "4112.5", "3.9e3", "  ",
)
# cells next to the edge of the DD/MM/YYYY and YYYY-MM-DD paths: impossible
# calendar dates and valid neighbours, wrong separators or lengths, non-ASCII digits
DATE_EDGES = (
    "31/02/2020", "30/02/2020", "29/02/2019", "29/02/1900", "29/02/2100", "00/05/2020",
    "05/00/2020", "05/13/2020", "31/04/2021", "32/01/2020", "01/01/0000", "99/99/9999",
    "29/02/2020", "29/02/2000", "31/12/9999", "01/01/0001", "31/01/2021", "30/04/2021",
    "05-03-2021", "05/03-2021", "5/03/20210", "05/03/2021\x00", "",
    "05/03/٢٠٢١", "٠٥/٠٣/٢٠٢١", "０５/０３/２０２１",
    "2021-02-29", "2020-02-29", "1900-02-29", "2000-02-29", "0000-01-01", "2021-13-01",
    "2021-00-10", "2021/01/01",
)


def date_cell(dates=st.dates()):
    return st.builds(lambda d, form: form(d), dates, st.sampled_from(DATE_FORMS))


# cells with no comma, quote or line end, which the byte path reads
UNQUOTED_CELLS = tuple(c for c in VALUE_CELLS if "," not in c) + ("\u00a0", "٤١١٢٫٥", "٣٩٨٧", "x\u00a0y")
# rows without data: empty, comma-only and whitespace-only, one with a ten-space date cell
BLANK_ROWS = ("", ",", ",,,,,,,", "   ", " ,\t, ", " " * 10 + ",,", "\u00a0,")
# rows with data that are faults: short (one cell), or with a cell that is no date
FAULT_ROWS = ("05/03/2021", " x", "٣", "31/02/2020,5", "2021-13-01,5", " " * 10 + ",5", ",5", "2021/01/01,4")
LINE_ENDINGS = ("\n", "\r\n", "\r")


def unquoted_rows(min_size: int = 1):
    """Rows of 2-9 unquoted cells, mixed with blank rows."""
    data_row = st.builds(
        lambda date, cells, width: ",".join([date, *cells][:width]),
        date_cell(st.dates(dt.date(1900, 1, 1), dt.date(2100, 12, 31))),
        st.lists(st.sampled_from(UNQUOTED_CELLS), min_size=8, max_size=8),
        st.integers(2, 9),
    )
    return st.lists(st.one_of(data_row, st.sampled_from(BLANK_ROWS)), min_size=min_size, max_size=20)


def with_endings(rows: list[str], ending: str, final: bool) -> str:
    return ending.join([FULL_HEADER, *rows]) + (ending if final else "")


def export_text(rows: list[list[str]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FULL_HEADER.split(","))
    writer.writerows(rows)
    return out.getvalue()


class TestParseRecords:
    def test_full_header_and_extras(self):
        data = csv_bytes(
            FULL_HEADER,
            "01/04/2013,130000,500,2800,2900,-12,300,15",
            "02/04/2013,131500,,2810,2905,8,310,",
        )
        records = parse_records(data)
        assert len(records) == 2
        assert records[0].date == dt.date(2013, 4, 1)
        assert records[0].max_demand_mw == 130000.0
        assert records[0].extras["shortage_during_max_demand_mw"] == 500.0
        assert records[0].extras["od_ud_mu"] == -12.0
        assert records[1].extras["shortage_during_max_demand_mw"] is None

    def test_shortage_column_never_steals_demand(self):
        # the shortage header embeds the demand phrase; demand must still come
        # from its own column
        data = csv_bytes(
            "Date,Shortage during Max Demand(MW),Max Demand met(MW)",
            "01/01/2020,7,4000",
        )
        records = parse_records(data)
        assert records[0].max_demand_mw == 4000.0
        assert records[0].extras["shortage_during_max_demand_mw"] == 7.0

    def test_longhand_demand_header(self):
        data = csv_bytes(
            "Date,Maximum Demand met during the day (MW)", "01/01/2020,4000"
        )
        assert parse_records(data)[0].max_demand_mw == 4000.0

    def test_minimal_two_column_input(self):
        data = csv_bytes("date,max_demand_mw", "2020-01-01,100", "2020-01-02,101")
        records = parse_records(data)
        assert [r.max_demand_mw for r in records] == [100.0, 101.0]

    def test_iso_and_ddmmyyyy_dates_mix(self):
        data = csv_bytes("date,max demand", "2020-01-01,1", "02/01/2020,2")
        records = parse_records(data)
        assert records[0].date == dt.date(2020, 1, 1)
        assert records[1].date == dt.date(2020, 1, 2)

    def test_unparseable_date_is_fatal_with_row_number(self):
        data = csv_bytes("date,max demand", "2020-01-01,1", "not-a-date,2")
        with pytest.raises(DataError, match="row 3"):
            parse_records(data)

    def test_single_digit_day_and_month(self):
        data = csv_bytes("date,max demand", "1/2/2020,1")
        assert parse_records(data)[0].date == dt.date(2020, 2, 1)

    def test_whitespace_padded_date(self):
        data = csv_bytes("date,max demand", "  05/03/2021 ,1", "\t2021-03-06\t,2")
        assert [r.date for r in parse_records(data)] == [dt.date(2021, 3, 5), dt.date(2021, 3, 6)]

    def test_impossible_calendar_date_is_fatal_with_row_number(self):
        data = csv_bytes("date,max demand", "30/01/2020,1", "31/02/2020,2")
        with pytest.raises(DataError, match=r"row 3: unparseable date '31/02/2020'"):
            parse_records(data)

    @pytest.mark.parametrize("cell", ["٠٥/٠٣/٢٠٢١", "０５/０３/２０２１", "05/03/２０２１", "²5/03/2021"])
    def test_non_ascii_digits_follow_strptime(self, cell):
        assert _parse_date(cell) == strptime_date(cell)

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.dates().map(lambda d: f"{d.day:02d}/{d.month:02d}/{d.year:04d}"),
            st.builds(
                date_like,
                st.integers(0, 40), st.integers(0, 14), st.integers(0, 10000),
                st.sampled_from(["{:02d}", "{:d}", "{:03d}"]), st.sampled_from(["/", "-", "."]),
                st.sampled_from(["", " ", "\t", "\u00a0"]),
            ),
            st.text(alphabet="0123456789/- ٠٣", max_size=12),
        )
    )
    def test_date_parse_matches_strptime(self, cell):
        assert _parse_date(cell) == strptime_date(cell)

    def test_fixture_matches_reference_parse(self, fixture_path):
        assert parse_records(fixture_path) == reference_records(fixture_path.read_text("utf-8-sig"))

    def test_long_generated_export_matches_reference_parse(self):
        text = generated_export(3713, seed=4)
        records = parse_records(text.encode())
        assert len(records) > 3600
        assert records == reference_records(text)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.builds(
            lambda date, cells, width: [date, *cells][:width],
            date_cell(st.dates(dt.date(1900, 1, 1), dt.date(2100, 12, 31))),
            st.lists(st.sampled_from(VALUE_CELLS), min_size=7, max_size=7),
            st.integers(2, 8),
        ),
        min_size=1, max_size=20,
    ))
    def test_mixed_cells_match_reference_parse(self, rows):
        text = export_text(rows)
        records = parse_records(text.encode())
        expected = reference_records(text)
        assert len(records) == len(expected) == len(rows)
        assert records == expected and expected == records
        assert [r.extras for r in records] == [r.extras for r in expected]

    @settings(max_examples=300, deadline=None)
    @given(unquoted_rows(), st.sampled_from(LINE_ENDINGS), st.booleans())
    def test_unquoted_exports_match_reference_parse(self, rows, ending, final):
        text = with_endings(rows, ending, final)
        assert '"' not in text
        expected = reference_records(with_endings(rows, "\n", final))
        if not expected:
            with pytest.raises(DataError, match="no data rows"):
                parse_records(text.encode())
            return
        records = parse_records(text.encode())
        assert records == expected and expected == records
        assert [r.extras for r in records] == [r.extras for r in expected]
        for part in (slice(1, None, 2), slice(None, None, -1), slice(-3, None)):
            assert records[part] == expected[part]
            assert [r.extras for r in records[part]] == [r.extras for r in expected[part]]

    @settings(max_examples=300, deadline=None)
    @given(
        unquoted_rows(min_size=0), st.sampled_from(FAULT_ROWS), st.integers(0, 20),
        st.sampled_from(LINE_ENDINGS), st.booleans(),
    )
    def test_unquoted_errors_equal_the_csv_readers(self, rows, fault, at, ending, final):
        rows.insert(at, fault)
        text = with_endings(rows, ending, final)
        errors = []
        # a quoted header cell leaves the header as it is and sends the text through csv.reader
        for source in (text, '"Date"' + text.removeprefix("Date")):
            with pytest.raises(DataError) as err:
                parse_records(source.encode())
            errors.append(str(err.value))
        assert errors[0] == errors[1]
        assert re.fullmatch(r"row \d+: (too few columns \(1\)|unparseable date .*)", errors[0])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.one_of(
            st.sampled_from(DATE_EDGES),
            date_cell(),
            st.text(alphabet="0123456789/- ٠٣", max_size=12),
        ),
        max_size=30,
    ))
    def test_vectorised_dates_match_strptime(self, cells):
        expected = [0 if (d := strptime_date(c)) is None else d.toordinal() for c in cells]
        assert _parse_dates(_spans(cells)).tolist() == expected

    @pytest.mark.parametrize("cell", DATE_EDGES)
    def test_date_edges_give_strptimes_date_or_the_row_error(self, cell):
        data = csv_bytes("date,max demand", "01/01/2020,1", f"{cell},2")
        expected = strptime_date(cell)
        if expected is None:
            with pytest.raises(DataError) as err:
                parse_records(data)
            assert str(err.value) == f"row 3: unparseable date {cell!r}"
        else:
            assert parse_records(data)[1].date == expected

    @pytest.mark.parametrize(
        "tail,message",
        [
            (("02/01/2020",), "row 6: too few columns (1)"),
            (("31/02/2020,4100",), "row 6: unparseable date '31/02/2020'"),
            (("31/02/2020,4100", "02/01/2020"), "row 6: unparseable date '31/02/2020'"),
            (("02/01/2020", "31/02/2020,4100"), "row 6: too few columns (1)"),
        ],
    )
    def test_error_row_is_the_readers_line_not_the_record_index(self, tail, message):
        # the quoted cell spans lines 2-3, lines 4 and 5 are blank rows
        data = csv_bytes(
            "date,max demand,energy met", '01/01/2020,4000,"two\nlines"', "", " , ", *tail
        )
        with pytest.raises(DataError) as err:
            parse_records(data)
        assert str(err.value) == message

    @staticmethod
    def sources(text: str, tmp_path) -> list:
        """The export as bytes, a byte stream, a text stream and a path."""
        path = tmp_path / "export.csv"
        path.write_bytes(text.encode())
        return [text.encode(), io.BytesIO(text.encode()), io.StringIO(text), path]

    @pytest.mark.parametrize(
        "quoted,ending",
        [(quoted, ending) for quoted in (True, False) for ending in ("\n", "\r\n", "\r")],
        ids=["lf", "crlf", "cr", "unquoted-lf", "unquoted-crlf", "unquoted-cr"],
    )
    def test_line_endings_and_sources_give_equal_records(self, quoted, ending, tmp_path):
        if quoted:
            # the generated export has quoted cells; one more spans two lines
            text = generated_export(90, seed=4) + '01/07/2013,4000,"a\nb"\n'
        else:
            text = unquoted(generated_export(90, seed=4)) + "01/07/2013,4000,a\n"
        expected = parse_records(text.encode())
        assert len(expected) > 80
        assert expected == reference_records(text)
        for source in self.sources(text.replace("\n", ending), tmp_path):
            assert parse_records(source) == expected

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize(
        "tail,message",
        [
            (("02/01/2020",), "row 6: too few columns (1)"),
            (("31/02/2020,4100",), "row 6: unparseable date '31/02/2020'"),
        ],
    )
    def test_error_rows_agree_across_line_endings(self, ending, tail, message, tmp_path):
        # as above: the quoted cell spans lines 2-3, lines 4 and 5 are blank rows
        text = "\n".join(["date,max demand,energy met", '01/01/2020,4000,"two\nlines"', "", " , ", *tail])
        for source in self.sources((text + "\n").replace("\n", ending), tmp_path):
            with pytest.raises(DataError) as err:
                parse_records(source)
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "rows,message",
        [
            (("date,max demand", "01/01/2020,5", '02/01/2020,"{big}"'), "row 3: field larger than field limit"),
            (('date,max demand,"{big}"', "01/01/2020,5"), "row 1: field larger than field limit"),
            (("date,max demand", "01/01/2020,5", "02/01/2020,{big}"), "row 3: field larger than field limit"),
            (("date,max demand,{big}", "01/01/2020,5"), "row 1: field larger than field limit"),
        ],
        ids=["row", "header", "unquoted-row", "unquoted-header"],
    )
    def test_csv_reader_errors_are_data_errors(self, rows, message):
        big = "x" * (csv.field_size_limit() + 1)
        with pytest.raises(DataError, match=re.escape(message)):
            parse_records(csv_bytes(*(row.replace("{big}", big) for row in rows)))

    @pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x85", "\u2028", "\x00", "\ud800"])
    def test_other_line_breaks_and_lone_surrogates_are_cell_content(self, char):
        # csv.reader ends a row only at LF, CR or CRLF; str.splitlines would end one at each
        # of the first five; a text stream can hold a lone surrogate
        text = f"{FULL_HEADER}\n01/01/2020,5{char}1,2{char},3\n02/01/2020,{char}7,a{char}b,4{char}5\n"
        records = parse_records(io.StringIO(text))
        assert len(records) == 2
        assert records == reference_records(text)
        assert [r.extras for r in records] == [r.extras for r in reference_records(text)]

    def test_duplicate_date_names_the_first_repeat_in_file_order(self):
        data = csv_bytes(
            "date,max demand", "03/01/2020,3", "01/01/2020,1", "02/01/2020,2", "02/01/2020,4", "01/01/2020,5"
        )
        records = parse_records(data)
        assert len(records) == 5
        with pytest.raises(DataError) as err:
            assemble(records)
        assert str(err.value) == "duplicate record for 2020-01-02"

    def test_records_are_a_read_only_sequence_of_raw_records(self):
        # the generated export has quoted cells; its unquoted form takes the byte path
        for text in (generated_export(60, seed=2), unquoted(generated_export(60, seed=2))):
            records = parse_records(text.encode())
            expected = reference_records(text)
            assert isinstance(records, Records)
            assert list(records) == expected
            assert records[-1] == expected[-1]
            assert records[5:17:3] == expected[5:17:3]
            assert isinstance(records[5:17:3], Records)
            assert records != expected[:-1]
            assert records.index(expected[7]) == 7
            with pytest.raises(IndexError):
                records[len(expected)]
            with pytest.raises(TypeError):
                records[0] = expected[1]

    def test_directory_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read input file"):
            parse_records(tmp_path)

    @pytest.mark.parametrize("cell", ["", "abc", "0", "-5", "inf", "nan"])
    def test_bad_demand_becomes_absent(self, cell):
        data = csv_bytes("date,max demand", f"2020-01-01,{cell}", "2020-01-02,7")
        records = parse_records(data)
        assert records[0].max_demand_mw is None

    def test_thousands_separators_are_stripped(self):
        data = csv_bytes("date,max demand", '2020-01-01,"130,000"')
        assert parse_records(data)[0].max_demand_mw == 130000.0

    def test_blank_rows_are_skipped(self):
        data = csv_bytes("date,max demand", "2020-01-01,1", ",", "2020-01-02,2")
        assert len(parse_records(data)) == 2

    def test_utf8_bom_is_tolerated(self):
        data = b"\xef\xbb\xbf" + csv_bytes("date,max demand", "2020-01-01,1")
        assert parse_records(data)[0].max_demand_mw == 1.0

    @pytest.mark.parametrize("form", ["bytes", "stream", "path"])
    def test_non_utf8_input_is_a_data_error(self, form, tmp_path):
        raw = b"date,max demand\n2020-01-01,\xd4\xfe\x80\n"
        if form == "path":
            source = tmp_path / "binary.csv"
            source.write_bytes(raw)
        else:
            source = raw if form == "bytes" else io.BytesIO(raw)
        with pytest.raises(DataError, match="not valid UTF-8"):
            parse_records(source)

    def test_stream_and_path_sources_agree(self, tmp_path):
        data = csv_bytes("date,max demand", "2020-01-01,1")
        path = tmp_path / "input.csv"
        path.write_bytes(data)
        assert parse_records(path) == parse_records(io.BytesIO(data))

    def test_empty_input(self):
        with pytest.raises(DataError, match="empty"):
            parse_records(b"")

    @pytest.mark.parametrize(
        "rows,match",
        [
            (("date,max demand",), "no data rows"),
            (("date,shortage(MW)", "2020-01-01,1"), "malformed header"),
            (("day,max demand", "2020-01-01,1"), "malformed header"),
        ],
    )
    def test_structural_errors(self, rows, match):
        with pytest.raises(DataError, match=match):
            parse_records(csv_bytes(*rows))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            parse_records(tmp_path / "absent.csv")


class TestAssemble:
    def test_fills_calendar_gaps_with_nan(self):
        records = [
            RawRecord(dt.date(2020, 1, 1), 10.0, {}),
            RawRecord(dt.date(2020, 1, 4), 13.0, {}),
        ]
        ts = assemble(records)
        assert len(ts) == 4
        np.testing.assert_array_equal(np.isnan(ts.values), [False, True, True, False])
        assert missing_dates(ts) == [dt.date(2020, 1, 2), dt.date(2020, 1, 3)]

    def test_absent_demand_record_is_a_gap(self):
        records = [
            RawRecord(dt.date(2020, 1, 1), 10.0, {}),
            RawRecord(dt.date(2020, 1, 2), None, {}),
            RawRecord(dt.date(2020, 1, 3), 12.0, {}),
        ]
        assert assemble(records).n_missing == 1

    def test_duplicate_dates_are_fatal(self):
        records = [
            RawRecord(dt.date(2020, 1, 1), 10.0, {}),
            RawRecord(dt.date(2020, 1, 1), 11.0, {}),
        ]
        with pytest.raises(DataError, match="duplicate"):
            assemble(records)

    def test_columnar_and_list_records_assemble_identically(self):
        records = parse_records(generated_export(3713, seed=4).encode())
        columnar, listed = assemble(records), assemble(list(records))
        assert columnar.start_date == listed.start_date
        assert columnar.values.tobytes() == listed.values.tobytes()

    def test_unsorted_input_is_accepted(self):
        records = [
            RawRecord(dt.date(2020, 1, 3), 12.0, {}),
            RawRecord(dt.date(2020, 1, 1), 10.0, {}),
        ]
        ts = assemble(records)
        assert ts.start_date == dt.date(2020, 1, 1)
        assert ts.values[0] == 10.0

    def test_rejects_all_absent(self):
        with pytest.raises(DataError):
            assemble([RawRecord(dt.date(2020, 1, 1), None, {})])


class TestImpute:
    # present values 10, 20, 20, 40 with gaps at slots 1 and 5 (trailing)
    gappy = [10.0, np.nan, 20.0, 20.0, 40.0, np.nan]

    def test_drop_compacts_onto_synthetic_dates(self):
        bundle = impute(make_series(self.gappy), ImputationStrategy.DROP)
        np.testing.assert_array_equal(bundle.series.values, [10.0, 20.0, 20.0, 40.0])
        # the compacted series ends on the last observed day, slot 4
        assert bundle.series.start_date == START + dt.timedelta(days=1)
        assert bundle.series.end_date == START + dt.timedelta(days=4)
        assert bundle.n_imputed == 2
        assert bundle.name == "dropna"

    def test_drop_starts_at_first_present_day(self):
        bundle = impute(make_series([np.nan, 5.0, 6.0]), ImputationStrategy.DROP)
        assert bundle.series.start_date == START + dt.timedelta(days=1)

    def test_mean_fill(self):
        bundle = impute(make_series(self.gappy), ImputationStrategy.MEAN)
        assert bundle.series.values[1] == pytest.approx(22.5)
        assert bundle.series.values[5] == pytest.approx(22.5)

    def test_median_fill(self):
        bundle = impute(make_series(self.gappy), ImputationStrategy.MEDIAN)
        assert bundle.series.values[1] == pytest.approx(20.0)

    def test_mode_fill(self):
        bundle = impute(make_series(self.gappy), ImputationStrategy.MODE)
        assert bundle.series.values[1] == 20.0

    def test_mode_tie_breaks_to_smallest(self):
        ts = make_series([3.0, 1.0, 3.0, 1.0, np.nan])
        bundle = impute(ts, ImputationStrategy.MODE)
        assert bundle.series.values[4] == 1.0

    def test_interpolation_is_linear_inside(self):
        ts = make_series([10.0, np.nan, np.nan, 40.0])
        bundle = impute(ts, ImputationStrategy.INTERPOLATE)
        np.testing.assert_allclose(bundle.series.values, [10.0, 20.0, 30.0, 40.0])

    def test_interpolation_clamps_at_edges(self):
        ts = make_series([np.nan, 5.0, 7.0, np.nan])
        bundle = impute(ts, ImputationStrategy.INTERPOLATE)
        np.testing.assert_allclose(bundle.series.values, [5.0, 5.0, 7.0, 7.0])

    @pytest.mark.parametrize("strategy", list(ImputationStrategy))
    def test_gap_free_input_is_untouched(self, strategy):
        ts = make_series([4.0, 5.0, 6.0, 5.5])
        bundle = impute(ts, strategy)
        np.testing.assert_array_equal(bundle.series.values, ts.values)
        assert bundle.series.start_date == ts.start_date
        assert bundle.n_imputed == 0

    def test_needs_two_present_values(self):
        with pytest.raises(InsufficientDataError):
            impute(make_series([np.nan, 7.0, np.nan]), ImputationStrategy.MEAN)

    @given(
        present=st.lists(st.floats(1.0, 1e5), min_size=2, max_size=30),
        gap_seed=st.integers(0, 2**31),
    )
    @settings(deadline=None, max_examples=60)
    def test_fills_stay_inside_observed_range(self, present, gap_seed):
        rng = np.random.default_rng(gap_seed)
        values = np.array(present, dtype=float)
        n = values.size + rng.integers(1, 8)
        slots = rng.choice(n, size=values.size, replace=False)
        full = np.full(n, np.nan)
        full[np.sort(slots)] = values
        ts = make_series(full)
        lo, hi = values.min(), values.max()
        for strategy in (
            ImputationStrategy.MEAN,
            ImputationStrategy.MEDIAN,
            ImputationStrategy.MODE,
            ImputationStrategy.INTERPOLATE,
        ):
            out = impute(ts, strategy).series.values
            assert not np.isnan(out).any()
            assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)


class TestBuildAll:
    def test_canonical_order_and_labels(self, fixture_records):
        bundles = build_all(fixture_records)
        assert [b.name for b in bundles] == ["dropna", "mean", "median", "mode", "interp"]
        assert [b.strategy for b in bundles] == list(STRATEGY_ORDER)
        assert set(STRATEGY_LABELS.values()) == {b.name for b in bundles}

    def test_fixture_gap_accounting(self, fixture_records):
        bundles = build_all(fixture_records)
        by_name = {b.name: b for b in bundles}
        assert all(b.n_imputed == 14 for b in bundles)
        assert len(by_name["mean"].series) == 420
        assert len(by_name["dropna"].series) == 406
        for b in bundles:
            assert b.series.is_complete

    def test_all_fills_positive_on_fixture(self, fixture_records):
        for b in build_all(fixture_records):
            assert np.all(b.series.values > 0)


class TestWriteBundleCsv:
    def test_round_trips_through_parser(self, tmp_path):
        ts = make_series([10.0, np.nan, 30.0])
        bundle = impute(ts, ImputationStrategy.INTERPOLATE)
        path = tmp_path / "interp.csv"
        write_bundle_csv(bundle, path)
        text = path.read_text()
        assert text.startswith("date,max_demand_mw\n")
        assert "\r" not in text
        reparsed = assemble(parse_records(path))
        np.testing.assert_allclose(reparsed.values, bundle.series.values)
        assert reparsed.start_date == bundle.series.start_date
