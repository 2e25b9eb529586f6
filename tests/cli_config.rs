//! Pins the configuration a local `apls` run resolves from its flags: the
//! report of a run that sets every job option, and of a run on defaults
//! only, reduced to the fields the configuration decides (root seed,
//! restart budget, engine list, each restart's seed and outcome, and the
//! winner). The five timing fields are left out; everything kept is a pure
//! function of (circuit, config, seed).

use analog_layout_synthesis::service::json::Json;

/// Runs the local CLI with `args` plus `--json -` and returns the parsed
/// report (stdout carries the summary lines first, then the document).
fn local_report(args: &[&str]) -> Json {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_apls"))
        .args(args)
        .args(["--json", "-"])
        .output()
        .expect("apls runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert!(
        output.status.success(),
        "{args:?}: {}{stdout}",
        String::from_utf8_lossy(&output.stderr)
    );
    let start = stdout.find("\n{\n").expect("a JSON report after the summary") + 1;
    Json::parse(stdout[start..].trim_end()).expect("the report parses")
}

/// A scalar as its JSON text (numbers keep their literal digits).
fn scalar(value: &Json) -> String {
    match value {
        Json::Null => "null".to_string(),
        Json::Bool(b) => b.to_string(),
        Json::Num(raw) => raw.clone(),
        Json::Str(s) => s.clone(),
        other => panic!("not a scalar: {other:?}"),
    }
}

/// One line per fact the configuration decides.
fn config_digest(report: &Json) -> String {
    let field = |key: &str| scalar(report.get(key).unwrap_or_else(|| panic!("no '{key}'")));
    let mut lines = vec![
        format!("root_seed={}", field("root_seed")),
        format!("restarts_scheduled={}", field("restarts_scheduled")),
    ];
    let engines: Vec<String> = report
        .get("engines")
        .and_then(Json::as_arr)
        .expect("engines")
        .iter()
        .map(|e| scalar(e.get("engine").expect("engine name")))
        .collect();
    lines.push(format!("engines={}", engines.join(",")));
    for restart in report.get("restarts").and_then(Json::as_arr).expect("restarts") {
        let f = |key: &str| scalar(restart.get(key).unwrap_or_else(|| panic!("no '{key}'")));
        lines.push(format!(
            "{}#{} seed={} cost={} symmetry_error={}",
            f("engine"),
            f("restart"),
            f("seed"),
            f("cost"),
            f("symmetry_error")
        ));
    }
    let Some(Json::Obj(best)) = report.get("best") else { panic!("no 'best' object") };
    let best: Vec<String> = best.iter().map(|(k, v)| format!("{k}={}", scalar(v))).collect();
    lines.push(format!("best {}", best.join(" ")));
    lines.join("\n")
}

#[test]
fn every_job_option_reaches_the_local_run() {
    let report = local_report(&[
        "-c",
        "comparator_v2",
        "-k",
        "2",
        "-s",
        "7",
        "-w",
        "0.7",
        "--hier-anneal-threshold",
        "4",
        "--plateau",
        "1",
        "--fast",
    ]);
    assert_eq!(config_digest(&report), EVERY_OPTION);
}

#[test]
fn the_local_run_defaults_are_pinned() {
    assert_eq!(config_digest(&local_report(&[])), DEFAULTS_ONLY);
}

/// A job option given twice is refused before anything runs, rather than
/// the last occurrence silently winning.
#[test]
fn a_repeated_job_option_is_refused_before_the_run() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_apls"))
        .args(["-k", "0", "-k", "1", "-e", "hier", "-e", "deterministic", "--fast"])
        .output()
        .expect("apls runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("the argument '--restarts' cannot be used multiple times"), "{stderr}");
    assert!(output.stdout.is_empty(), "{}", String::from_utf8_lossy(&output.stdout));
}

/// Captured from `apls -c comparator_v2 -k 2 -s 7 -w 0.7
/// --hier-anneal-threshold 4 --plateau 1 --fast`.
const EVERY_OPTION: &str = "\
root_seed=7
restarts_scheduled=2
engines=seqpair,hbtree,deterministic,hier,tempering
seqpair#0 seed=7 cost=602200.200 symmetry_error=0
hbtree#0 seed=7 cost=539807.100 symmetry_error=0
deterministic#0 seed=7 cost=508136.300 symmetry_error=534
hier#0 seed=7 cost=502863.600 symmetry_error=658
tempering#0 seed=7 cost=602200.200 symmetry_error=0
seqpair#1 seed=13910368331850184221 cost=602200.200 symmetry_error=0
hbtree#1 seed=15006851117747481132 cost=539807.100 symmetry_error=0
hier#1 seed=17909605382919842189 cost=502429.600 symmetry_error=534
tempering#1 seed=1783795969914998611 cost=602200.200 symmetry_error=0
best engine=hier restart=1 seed=17909605382919842189 cost=502429.600 width=577 height=863 area_usage=1.0397 wirelength=6398.000 symmetry_error=534 overlap_area=0 enumeration_won=false";

/// Captured from `apls` with no job option (seed 1, 8 restarts, all five
/// engines, the full schedule).
const DEFAULTS_ONLY: &str = "\
root_seed=1
restarts_scheduled=8
engines=seqpair,hbtree,deterministic,hier,tempering
seqpair#0 seed=1 cost=25194.250 symmetry_error=0
hbtree#0 seed=1 cost=22687.250 symmetry_error=0
deterministic#0 seed=1 cost=21783.000 symmetry_error=60
hier#0 seed=1 cost=21691.250 symmetry_error=70
tempering#0 seed=1 cost=23528.750 symmetry_error=0
seqpair#1 seed=13566199627124634028 cost=25200.250 symmetry_error=0
hbtree#1 seed=2135420925457794822 cost=24262.750 symmetry_error=0
hier#1 seed=2709546960199560559 cost=21641.250 symmetry_error=70
tempering#1 seed=8235103969613433214 cost=23540.250 symmetry_error=0
seqpair#2 seed=5290835085082151133 cost=23016.250 symmetry_error=0
hbtree#2 seed=2253515042808946453 cost=22687.250 symmetry_error=0
hier#2 seed=6388223530346848567 cost=21709.500 symmetry_error=208
tempering#2 seed=15492934703784074055 cost=23078.750 symmetry_error=0
seqpair#3 seed=14064032051273523573 cost=23559.250 symmetry_error=0
hbtree#3 seed=4869460554160933499 cost=24262.250 symmetry_error=0
hier#3 seed=13471798983187935373 cost=21765.250 symmetry_error=70
tempering#3 seed=2769162674074321107 cost=23521.250 symmetry_error=0
seqpair#4 seed=17559451464706927947 cost=23673.750 symmetry_error=0
hbtree#4 seed=12518893669005736859 cost=22687.250 symmetry_error=0
hier#4 seed=5721617827825056319 cost=21675.750 symmetry_error=116
tempering#4 seed=12486325625091650231 cost=23234.250 symmetry_error=0
seqpair#5 seed=12816947447177412478 cost=23579.750 symmetry_error=0
hbtree#5 seed=5551623329268907996 cost=22883.250 symmetry_error=0
hier#5 seed=14327844021942352084 cost=21205.250 symmetry_error=34
tempering#5 seed=16778173133518004242 cost=23540.250 symmetry_error=0
seqpair#6 seed=10901728306778615912 cost=24879.750 symmetry_error=0
hbtree#6 seed=12523154785786481150 cost=24262.750 symmetry_error=0
hier#6 seed=14725967084902046230 cost=21728.750 symmetry_error=116
tempering#6 seed=17039920679554615868 cost=23294.250 symmetry_error=0
seqpair#7 seed=13183470641977349976 cost=23534.250 symmetry_error=0
hbtree#7 seed=14077104098491291396 cost=24262.250 symmetry_error=0
hier#7 seed=2142134496649926887 cost=21161.500 symmetry_error=60
tempering#7 seed=1304959390700507964 cost=23559.250 symmetry_error=0
best engine=hier restart=7 seed=2142134496649926887 cost=21161.500 width=170 height=122 area_usage=1.0452 wirelength=843.000 symmetry_error=60 overlap_area=0 enumeration_won=false";
