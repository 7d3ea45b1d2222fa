//! Minimal offline stand-in for serde_derive: parses struct/enum
//! definitions by raw token inspection (no syn) and emits impls of the
//! stub `serde::Serialize` / `serde::Deserialize` traits, which map values
//! through a simple JSON tree. Supports non-generic named-field structs,
//! tuple structs, and enums with unit / tuple / struct variants — the full
//! shape inventory of this workspace. The one field attribute understood
//! is real serde's `#[serde(skip)]`: the field is left out on write and
//! filled with `Default::default()` on read.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Shape {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

struct Field {
    name: String,
    /// `#[serde(skip)]`: never written, `Default` on read.
    skip: bool,
}

struct Variant {
    name: String,
    shape: Shape,
}

enum Parsed {
    Struct { name: String, shape: Shape },
    Enum { name: String, variants: Vec<Variant> },
}

/// Whether an attribute body (the tokens inside `#[...]`) is
/// `serde(skip)`. Any other `serde(...)` attribute is rejected rather than
/// silently ignored.
fn is_serde_skip(attr: &TokenTree) -> bool {
    let TokenTree::Group(g) = attr else {
        return false;
    };
    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
    match inner.as_slice() {
        [TokenTree::Ident(id), TokenTree::Group(args)] if id.to_string() == "serde" => {
            let args = args.stream().to_string();
            assert!(
                args == "skip",
                "serde_derive stub: unsupported attribute serde({args})"
            );
            true
        }
        _ => false,
    }
}

/// Skips attributes and a visibility qualifier; `skip` is set when one
/// of the attributes is `#[serde(skip)]`.
fn skip_attrs_and_vis(tokens: &[TokenTree], mut i: usize, skip: &mut bool) -> usize {
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                i += 1;
                if let Some(attr @ TokenTree::Group(_)) = tokens.get(i) {
                    *skip |= is_serde_skip(attr);
                    i += 1;
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return i,
        }
    }
}

/// Parses named fields from the tokens of a brace group.
fn parse_named_fields(tokens: &[TokenTree]) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let mut skip = false;
        i = skip_attrs_and_vis(tokens, i, &mut skip);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            _ => break,
        };
        i += 1;
        // expect ':'
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            _ => break,
        }
        fields.push(Field { name, skip });
        // consume the type until a comma at angle depth 0
        let mut angle: i32 = 0;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    fields
}

/// Counts the comma-separated items in a paren group (tuple fields).
fn tuple_arity(tokens: &[TokenTree]) -> usize {
    if tokens.is_empty() {
        return 0;
    }
    let mut arity = 1;
    let mut angle: i32 = 0;
    for (idx, t) in tokens.iter().enumerate() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                // ignore a trailing comma
                if idx + 1 < tokens.len() {
                    arity += 1;
                }
            }
            _ => {}
        }
    }
    arity
}

fn parse_variants(tokens: &[TokenTree]) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(tokens, i, &mut false);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            _ => break,
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                Shape::Tuple(tuple_arity(&inner))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                Shape::Named(parse_named_fields(&inner))
            }
            _ => Shape::Unit,
        };
        variants.push(Variant { name, shape });
        // skip an optional discriminant, then the separating comma
        let mut angle: i32 = 0;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    variants
}

fn parse(input: TokenStream) -> Parsed {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&tokens, 0, &mut false);
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive stub: expected struct/enum, got {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive stub: expected type name, got {other}"),
    };
    i += 1;
    // skip generics if present
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            let mut depth = 0i32;
            while i < tokens.len() {
                match &tokens[i] {
                    TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                    TokenTree::Punct(p) if p.as_char() == '>' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            panic!("serde_derive stub: generic types are not supported ({name})");
        }
    }
    if kind == "struct" {
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                Shape::Named(parse_named_fields(&inner))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                Shape::Tuple(tuple_arity(&inner))
            }
            _ => Shape::Unit,
        };
        Parsed::Struct { name, shape }
    } else if kind == "enum" {
        let variants = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                parse_variants(&inner)
            }
            _ => panic!("serde_derive stub: enum body missing for {name}"),
        };
        Parsed::Enum { name, variants }
    } else {
        panic!("serde_derive stub: unsupported item kind {kind}");
    }
}

/// `("name", value)` entries of the written fields, each read through
/// `{access}{name}`: `&self.name` for structs, the bound `name` for enum
/// variants.
fn ser_fields(fields: &[Field], access: &str) -> String {
    let items: Vec<String> = fields
        .iter()
        .filter(|f| !f.skip)
        .map(|f| {
            let n = &f.name;
            format!("(\"{n}\".to_string(), ::serde::Serialize::to_json_value({access}{n}))")
        })
        .collect();
    items.join(", ")
}

/// Field initializers read from the object bound to `obj`; skipped
/// fields take their `Default`.
fn de_fields(fields: &[Field], obj: &str) -> String {
    let items: Vec<String> = fields
        .iter()
        .map(|f| {
            let n = &f.name;
            if f.skip {
                format!("{n}: ::core::default::Default::default(),")
            } else {
                format!(
                    "{n}: ::serde::Deserialize::from_json_value(::serde::__get({obj}, \"{n}\")?)?,"
                )
            }
        })
        .collect();
    items.join(" ")
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let out = match parse(input) {
        Parsed::Struct { name, shape } => {
            let body = match shape {
                Shape::Named(fields) => format!(
                    "::serde::json_value::JsonValue::Obj(vec![{}])",
                    ser_fields(&fields, "&self.")
                ),
                Shape::Tuple(n) => {
                    let items: Vec<String> = (0..n)
                        .map(|i| format!("::serde::Serialize::to_json_value(&self.{i})"))
                        .collect();
                    format!(
                        "::serde::json_value::JsonValue::Arr(vec![{}])",
                        items.join(", ")
                    )
                }
                Shape::Unit => "::serde::json_value::JsonValue::Null".to_string(),
            };
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn to_json_value(&self) -> ::serde::json_value::JsonValue {{ {body} }}\n\
                 }}"
            )
        }
        Parsed::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.shape {
                        Shape::Unit => format!(
                            "{name}::{vn} => ::serde::json_value::JsonValue::Str(\"{vn}\".to_string()),"
                        ),
                        Shape::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("a{i}")).collect();
                            let items: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::to_json_value({b})"))
                                .collect();
                            format!(
                                "{name}::{vn}({binds}) => ::serde::json_value::JsonValue::Obj(vec![(\"{vn}\".to_string(), ::serde::json_value::JsonValue::Arr(vec![{items}]))]),",
                                binds = binds.join(", "),
                                items = items.join(", ")
                            )
                        }
                        Shape::Named(fields) => {
                            let binds: String = fields
                                .iter()
                                .filter(|f| !f.skip)
                                .map(|f| format!("{}, ", f.name))
                                .collect();
                            format!(
                                "{name}::{vn} {{ {binds}.. }} => ::serde::json_value::JsonValue::Obj(vec![(\"{vn}\".to_string(), ::serde::json_value::JsonValue::Obj(vec![{items}]))]),",
                                items = ser_fields(fields, "")
                            )
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Serialize for {name} {{\n\
                 fn to_json_value(&self) -> ::serde::json_value::JsonValue {{\n\
                 match self {{\n{arms}\n}}\n}}\n}}",
                arms = arms.join("\n")
            )
        }
    };
    out.parse().expect("serde_derive stub: generated code parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let out = match parse(input) {
        Parsed::Struct { name, shape } => {
            let body = match shape {
                Shape::Named(fields) => format!(
                    "let __obj = ::serde::__as_obj(v)?;\nOk({name} {{ {} }})",
                    de_fields(&fields, "__obj")
                ),
                Shape::Tuple(n) => {
                    let items: Vec<String> = (0..n)
                        .map(|i| {
                            format!(
                                "::serde::Deserialize::from_json_value(::serde::__idx(__arr, {i})?)?"
                            )
                        })
                        .collect();
                    format!(
                        "let __arr = ::serde::__as_arr(v)?;\nOk({name}({}))",
                        items.join(", ")
                    )
                }
                Shape::Unit => format!("Ok({name})"),
            };
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                 fn from_json_value(v: &::serde::json_value::JsonValue) -> Result<Self, String> {{ {body} }}\n\
                 }}"
            )
        }
        Parsed::Enum { name, variants } => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in &variants {
                let vn = &v.name;
                match &v.shape {
                    Shape::Unit => {
                        unit_arms.push_str(&format!("\"{vn}\" => Ok({name}::{vn}),\n"));
                    }
                    Shape::Tuple(n) => {
                        let items: Vec<String> = (0..*n)
                            .map(|i| {
                                format!(
                                    "::serde::Deserialize::from_json_value(::serde::__idx(__arr, {i})?)?"
                                )
                            })
                            .collect();
                        tagged_arms.push_str(&format!(
                            "\"{vn}\" => {{ let __arr = ::serde::__as_arr(__payload)?; Ok({name}::{vn}({})) }}\n",
                            items.join(", ")
                        ));
                    }
                    Shape::Named(fields) => {
                        tagged_arms.push_str(&format!(
                            "\"{vn}\" => {{ let __inner = ::serde::__as_obj(__payload)?; Ok({name}::{vn} {{ {} }}) }}\n",
                            de_fields(fields, "__inner")
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                 fn from_json_value(v: &::serde::json_value::JsonValue) -> Result<Self, String> {{\n\
                 match v {{\n\
                 ::serde::json_value::JsonValue::Str(__s) => match __s.as_str() {{\n\
                 {unit_arms}\
                 __other => Err(format!(\"unknown variant {{__other}} for {name}\")),\n\
                 }},\n\
                 ::serde::json_value::JsonValue::Obj(__o) if __o.len() == 1 => {{\n\
                 let (__tag, __payload) = &__o[0];\n\
                 match __tag.as_str() {{\n\
                 {tagged_arms}\
                 __other => Err(format!(\"unknown variant {{__other}} for {name}\")),\n\
                 }}\n\
                 }},\n\
                 _ => Err(\"expected enum encoding for {name}\".to_string()),\n\
                 }}\n}}\n}}"
            )
        }
    };
    out.parse().expect("serde_derive stub: generated code parses")
}
