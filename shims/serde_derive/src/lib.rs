//! `#[derive(Serialize, Deserialize)]` for the offline serde shim.
//!
//! Parses the item's token stream directly (no `syn`/`quote`, which are
//! unfetchable in this build environment) and emits impls of the shim's
//! JSON-backed traits. Supported shapes — the only ones this workspace
//! uses — are non-generic structs (named, tuple, unit) and enums with
//! unit, tuple, or struct variants. `#[serde(...)]` attributes are not
//! interpreted.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

#[derive(Debug)]
struct Variant {
    name: String,
    fields: Fields,
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Derives the shim's `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    emit(gen_serialize(&parse_item(input)))
}

/// Derives the shim's `serde::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    emit(gen_deserialize(&parse_item(input)))
}

/// The generated impl as tokens.
#[expect(
    clippy::expect_used,
    reason = "INVARIANT: the generators emit well-formed Rust for every item `parse_item` accepts"
)]
fn emit(code: String) -> TokenStream {
    code.parse().expect("serde shim: generated impl must parse")
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

fn is_punct(tok: &TokenTree, c: char) -> bool {
    matches!(tok, TokenTree::Punct(p) if p.as_char() == c)
}

fn is_ident(tok: &TokenTree, s: &str) -> bool {
    matches!(tok, TokenTree::Ident(id) if id.to_string() == s)
}

/// Advances past `#[...]` attributes and a `pub`/`pub(...)` visibility.
fn skip_attrs_and_vis(toks: &[TokenTree], i: &mut usize) {
    loop {
        if *i < toks.len() && is_punct(&toks[*i], '#') {
            *i += 2; // '#' plus the bracketed group
            continue;
        }
        if *i < toks.len() && is_ident(&toks[*i], "pub") {
            *i += 1;
            if matches!(toks.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                *i += 1;
            }
            continue;
        }
        break;
    }
}

/// Advances to just past the next comma at angle-bracket depth 0.
fn skip_past_comma(toks: &[TokenTree], i: &mut usize) {
    let mut depth = 0i32;
    while *i < toks.len() {
        if is_punct(&toks[*i], '<') {
            depth += 1;
        } else if is_punct(&toks[*i], '>') {
            depth -= 1;
        } else if depth == 0 && is_punct(&toks[*i], ',') {
            *i += 1;
            return;
        }
        *i += 1;
    }
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&toks, &mut i);
    let is_enum = if is_ident(&toks[i], "struct") {
        false
    } else if is_ident(&toks[i], "enum") {
        true
    } else {
        panic!(
            "serde shim derive supports only structs and enums, got {:?}",
            toks[i]
        );
    };
    i += 1;
    let name = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };
    i += 1;
    if toks.get(i).is_some_and(|t| is_punct(t, '<')) {
        panic!("serde shim derive does not support generic type `{name}`");
    }
    if is_enum {
        match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let body: Vec<TokenTree> = g.stream().into_iter().collect();
                Item::Enum {
                    name,
                    variants: parse_variants(&body),
                }
            }
            other => panic!("serde shim derive: expected enum body, got {other:?}"),
        }
    } else {
        let fields = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let body: Vec<TokenTree> = g.stream().into_iter().collect();
                Fields::Named(parse_named_fields(&body))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let body: Vec<TokenTree> = g.stream().into_iter().collect();
                Fields::Tuple(count_tuple_fields(&body))
            }
            Some(t) if is_punct(t, ';') => Fields::Unit,
            other => panic!("serde shim derive: expected struct body, got {other:?}"),
        };
        Item::Struct { name, fields }
    }
}

fn parse_named_fields(toks: &[TokenTree]) -> Vec<String> {
    let mut names = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        skip_attrs_and_vis(toks, &mut i);
        if i >= toks.len() {
            break;
        }
        match &toks[i] {
            TokenTree::Ident(id) => names.push(id.to_string()),
            other => panic!("serde shim derive: expected field name, got {other:?}"),
        }
        i += 1; // name
        i += 1; // ':'
        skip_past_comma(toks, &mut i);
    }
    names
}

fn count_tuple_fields(toks: &[TokenTree]) -> usize {
    let mut count = 0;
    let mut depth = 0i32;
    let mut pending = false;
    for tok in toks {
        if is_punct(tok, '<') {
            depth += 1;
        } else if is_punct(tok, '>') {
            depth -= 1;
        } else if depth == 0 && is_punct(tok, ',') {
            count += 1;
            pending = false;
            continue;
        }
        pending = true;
    }
    count + usize::from(pending)
}

fn parse_variants(toks: &[TokenTree]) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        skip_attrs_and_vis(toks, &mut i);
        if i >= toks.len() {
            break;
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde shim derive: expected variant name, got {other:?}"),
        };
        i += 1;
        let fields = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let body: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                Fields::Tuple(count_tuple_fields(&body))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let body: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                Fields::Named(parse_named_fields(&body))
            }
            _ => Fields::Unit,
        };
        skip_past_comma(toks, &mut i); // also skips `= discriminant`
        variants.push(Variant { name, fields });
    }
    variants
}

// ---------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(field_names) => {
                    let pairs: Vec<String> = field_names
                        .iter()
                        .map(|f| {
                            format!(
                                "(::std::string::String::from(\"{f}\"), \
                                 ::serde::Serialize::to_json_value(&self.{f}))"
                            )
                        })
                        .collect();
                    format!("::serde::Value::Obj(vec![{}])", pairs.join(", "))
                }
                Fields::Tuple(1) => "::serde::Serialize::to_json_value(&self.0)".to_string(),
                Fields::Tuple(n) => {
                    let items: Vec<String> = (0..*n)
                        .map(|k| format!("::serde::Serialize::to_json_value(&self.{k})"))
                        .collect();
                    format!("::serde::Value::Arr(vec![{}])", items.join(", "))
                }
                Fields::Unit => "::serde::Value::Null".to_string(),
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_json_value(&self) -> ::serde::Value {{ {body} }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.fields {
                        Fields::Unit => format!(
                            "{name}::{vname} => \
                             ::serde::Value::Str(::std::string::String::from(\"{vname}\")),"
                        ),
                        Fields::Tuple(1) => format!(
                            "{name}::{vname}(f0) => ::serde::Value::Obj(vec![\
                             (::std::string::String::from(\"{vname}\"), \
                              ::serde::Serialize::to_json_value(f0))]),"
                        ),
                        Fields::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|k| format!("f{k}")).collect();
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_json_value({b})"))
                                .collect();
                            format!(
                                "{name}::{vname}({}) => ::serde::Value::Obj(vec![\
                                 (::std::string::String::from(\"{vname}\"), \
                                  ::serde::Value::Arr(vec![{}]))]),",
                                binds.join(", "),
                                items.join(", ")
                            )
                        }
                        Fields::Named(field_names) => {
                            let binds = field_names.join(", ");
                            let pairs: Vec<String> = field_names
                                .iter()
                                .map(|f| {
                                    format!(
                                        "(::std::string::String::from(\"{f}\"), \
                                         ::serde::Serialize::to_json_value({f}))"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vname} {{ {binds} }} => ::serde::Value::Obj(vec![\
                                 (::std::string::String::from(\"{vname}\"), \
                                  ::serde::Value::Obj(vec![{}]))]),",
                                pairs.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                     fn to_json_value(&self) -> ::serde::Value {{\n\
                         match self {{\n{}\n}}\n\
                     }}\n\
                 }}",
                arms.join("\n")
            )
        }
    }
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(field_names) => {
                    let inits: Vec<String> = field_names
                        .iter()
                        .map(|f| {
                            format!(
                                "{f}: ::serde::Deserialize::from_json_value(value.get(\"{f}\")?)?"
                            )
                        })
                        .collect();
                    format!(
                        "::std::option::Option::Some({name} {{ {} }})",
                        inits.join(", ")
                    )
                }
                Fields::Tuple(1) => format!(
                    "::std::option::Option::Some({name}(\
                     ::serde::Deserialize::from_json_value(value)?))"
                ),
                Fields::Tuple(n) => {
                    let binds: Vec<String> = (0..*n).map(|k| format!("f{k}")).collect();
                    let inits: Vec<String> = binds
                        .iter()
                        .map(|b| format!("::serde::Deserialize::from_json_value({b})?"))
                        .collect();
                    format!(
                        "match value.as_arr()? {{\n\
                             [{}] => ::std::option::Option::Some({name}({})),\n\
                             _ => ::std::option::Option::None,\n\
                         }}",
                        binds.join(", "),
                        inits.join(", ")
                    )
                }
                Fields::Unit => format!(
                    "match value {{\n\
                         ::serde::Value::Null => ::std::option::Option::Some({name}),\n\
                         _ => ::std::option::Option::None,\n\
                     }}"
                ),
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_json_value(value: &::serde::Value) -> ::std::option::Option<Self> {{\n\
                         {body}\n\
                     }}\n\
                 }}"
            )
        }
        Item::Enum { name, variants } => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.fields, Fields::Unit))
                .map(|v| {
                    format!(
                        "\"{vname}\" => ::std::option::Option::Some({name}::{vname}),",
                        vname = v.name
                    )
                })
                .collect();
            let payload_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let vname = &v.name;
                    match &v.fields {
                        Fields::Unit => None,
                        Fields::Tuple(1) => Some(format!(
                            "\"{vname}\" => ::std::option::Option::Some({name}::{vname}(\
                             ::serde::Deserialize::from_json_value(payload)?)),"
                        )),
                        Fields::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|k| format!("f{k}")).collect();
                            let inits: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Deserialize::from_json_value({b})?"))
                                .collect();
                            Some(format!(
                                "\"{vname}\" => match payload.as_arr()? {{\n\
                                     [{}] => ::std::option::Option::Some({name}::{vname}({})),\n\
                                     _ => ::std::option::Option::None,\n\
                                 }},",
                                binds.join(", "),
                                inits.join(", ")
                            ))
                        }
                        Fields::Named(field_names) => {
                            let inits: Vec<String> = field_names
                                .iter()
                                .map(|f| {
                                    format!(
                                        "{f}: ::serde::Deserialize::from_json_value(\
                                         payload.get(\"{f}\")?)?"
                                    )
                                })
                                .collect();
                            Some(format!(
                                "\"{vname}\" => ::std::option::Option::Some({name}::{vname} {{ {} }}),",
                                inits.join(", ")
                            ))
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_json_value(value: &::serde::Value) -> ::std::option::Option<Self> {{\n\
                         match value {{\n\
                             ::serde::Value::Str(s) => match s.as_str() {{\n\
                                 {}\n\
                                 _ => ::std::option::Option::None,\n\
                             }},\n\
                             ::serde::Value::Obj(pairs) if pairs.len() == 1 => {{\n\
                                 let (tag, payload) = &pairs[0];\n\
                                 let _ = payload;\n\
                                 match tag.as_str() {{\n\
                                     {}\n\
                                     _ => ::std::option::Option::None,\n\
                                 }}\n\
                             }}\n\
                             _ => ::std::option::Option::None,\n\
                         }}\n\
                     }}\n\
                 }}",
                unit_arms.join("\n"),
                payload_arms.join("\n")
            )
        }
    }
}
