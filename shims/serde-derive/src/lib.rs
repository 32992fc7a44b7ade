//! `#[derive(Serialize, Deserialize)]` for the offline serde shim.
//!
//! Implemented directly on `proc_macro::TokenStream` (the build environment
//! has no crates.io access, so `syn`/`quote` are unavailable). Supports the
//! container shapes this workspace uses:
//!
//! * structs with named fields (`#[serde(default)]` per field);
//! * tuple structs — one field serializes as the inner value (serde's
//!   newtype rule, also chosen by `#[serde(transparent)]`), several fields
//!   as an array;
//! * externally tagged enums with unit, single-field tuple, and named-field
//!   variants;
//! * container attributes `#[serde(transparent)]` and
//!   `#[serde(try_from = "Type")]`.
//!
//! Anything else (generics, unusual attributes) produces a compile error
//! rather than silently wrong code.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug, Clone)]
struct Field {
    name: String,
    default: bool,
}

#[derive(Debug, Clone)]
enum VariantShape {
    Unit,
    Newtype,
    Struct(Vec<Field>),
}

#[derive(Debug, Clone)]
struct Variant {
    name: String,
    shape: VariantShape,
}

#[derive(Debug)]
enum Container {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    Enum(Vec<Variant>),
}

#[derive(Debug, Default)]
struct ContainerAttrs {
    transparent: bool,
    try_from: Option<String>,
}

struct Parsed {
    name: String,
    attrs: ContainerAttrs,
    container: Container,
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

/// Collects `(...)`-group contents of any `#[serde(...)]` attributes from a
/// token run, returning the raw serde attr payload streams.
fn take_serde_attrs(tokens: &[TokenTree], mut idx: usize) -> (Vec<TokenStream>, usize) {
    let mut found = Vec::new();
    while idx < tokens.len() {
        match &tokens[idx] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                // `#[...]` — inspect the bracket group.
                if let Some(TokenTree::Group(g)) = tokens.get(idx + 1) {
                    if g.delimiter() == Delimiter::Bracket {
                        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                        if let Some(TokenTree::Ident(name)) = inner.first() {
                            if name.to_string() == "serde" {
                                if let Some(TokenTree::Group(payload)) = inner.get(1) {
                                    found.push(payload.stream());
                                }
                            }
                        }
                        idx += 2;
                        continue;
                    }
                }
                idx += 1;
            }
            _ => break,
        }
    }
    (found, idx)
}

fn parse_container_attrs(streams: &[TokenStream]) -> Result<ContainerAttrs, String> {
    let mut attrs = ContainerAttrs::default();
    for stream in streams {
        let toks: Vec<TokenTree> = stream.clone().into_iter().collect();
        let mut i = 0;
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Ident(id) => {
                    let word = id.to_string();
                    match word.as_str() {
                        "transparent" => {
                            attrs.transparent = true;
                            i += 1;
                        }
                        "try_from" => {
                            // try_from = "Type"
                            let lit = match (toks.get(i + 1), toks.get(i + 2)) {
                                (Some(TokenTree::Punct(eq)), Some(TokenTree::Literal(lit)))
                                    if eq.as_char() == '=' =>
                                {
                                    lit.to_string()
                                }
                                _ => return Err("malformed #[serde(try_from = \"...\")]".into()),
                            };
                            attrs.try_from = Some(lit.trim_matches('"').to_string());
                            i += 3;
                        }
                        "default" | "deny_unknown_fields" | "rename_all" => {
                            // Tolerated: skip the word and an optional `= lit`.
                            i += 1;
                            if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '=')
                            {
                                i += 2;
                            }
                        }
                        other => return Err(format!("unsupported container serde attr `{other}`")),
                    }
                }
                TokenTree::Punct(p) if p.as_char() == ',' => i += 1,
                other => return Err(format!("unexpected token in serde attr: {other}")),
            }
        }
    }
    Ok(attrs)
}

fn field_attr_default(streams: &[TokenStream]) -> bool {
    streams.iter().any(|s| {
        s.clone()
            .into_iter()
            .any(|t| matches!(&t, TokenTree::Ident(id) if id.to_string() == "default"))
    })
}

/// Parses the named fields inside a brace group.
fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let (attrs, next) = take_serde_attrs(&tokens, i);
        i = next;
        if i >= tokens.len() {
            break;
        }
        // Skip visibility: `pub` optionally followed by `(...)`.
        if matches!(&tokens[i], TokenTree::Ident(id) if id.to_string() == "pub") {
            i += 1;
            if matches!(&tokens[i], TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis)
            {
                i += 1;
            }
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => return Err(format!("expected field name, found {other}")),
        };
        i += 1;
        match &tokens[i] {
            TokenTree::Punct(p) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:` after field `{name}`, found {other}")),
        }
        // Skip the type: tokens until a comma at angle-bracket depth 0.
        let mut angle = 0i32;
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
        fields.push(Field {
            name,
            default: field_attr_default(&attrs),
        });
    }
    Ok(fields)
}

/// Counts the fields of a tuple struct / tuple variant paren group.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut angle = 0i32;
    let mut commas = 0usize;
    let mut any = false;
    for t in stream {
        any = true;
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => commas += 1,
            _ => {}
        }
    }
    if any {
        commas + 1
    } else {
        0
    }
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Skip all attributes (doc comments, #[default], serde attrs…).
        let (_attrs, next) = skip_all_attrs(&tokens, i);
        i = next;
        if i >= tokens.len() {
            break;
        }
        let name = match &tokens[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => return Err(format!("expected variant name, found {other}")),
        };
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                i += 1;
                if n != 1 {
                    return Err(format!(
                        "variant `{name}`: only single-field tuple variants are supported"
                    ));
                }
                VariantShape::Newtype
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                i += 1;
                VariantShape::Struct(fields)
            }
            _ => VariantShape::Unit,
        };
        // Skip an optional discriminant `= expr` then the comma.
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == ',' => {
                    i += 1;
                    break;
                }
                _ => i += 1,
            }
        }
        variants.push(Variant { name, shape });
    }
    Ok(variants)
}

/// Skips any leading attributes, returning serde attr payloads among them.
fn skip_all_attrs(tokens: &[TokenTree], mut idx: usize) -> (Vec<TokenStream>, usize) {
    let mut serde_attrs = Vec::new();
    while idx < tokens.len() {
        match &tokens[idx] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(idx + 1) {
                    if g.delimiter() == Delimiter::Bracket {
                        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                        if let (Some(TokenTree::Ident(name)), Some(TokenTree::Group(payload))) =
                            (inner.first(), inner.get(1))
                        {
                            if name.to_string() == "serde" {
                                serde_attrs.push(payload.stream());
                            }
                        }
                        idx += 2;
                        continue;
                    }
                }
                idx += 1;
            }
            _ => break,
        }
    }
    (serde_attrs, idx)
}

fn parse_input(input: TokenStream) -> Result<Parsed, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let (serde_attrs, mut i) = skip_all_attrs(&tokens, 0);
    let attrs = parse_container_attrs(&serde_attrs)?;

    // Skip visibility.
    if matches!(&tokens.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
        i += 1;
        if matches!(&tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            i += 1;
        }
    }
    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "`{name}`: generic types are not supported by the serde shim derive"
        ));
    }

    let container = match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Container::NamedStruct(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Container::TupleStruct(count_tuple_fields(g.stream()))
            }
            other => return Err(format!("unsupported struct body: {other:?}")),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Container::Enum(parse_variants(g.stream())?)
            }
            other => return Err(format!("unsupported enum body: {other:?}")),
        },
        other => return Err(format!("expected `struct` or `enum`, found `{other}`")),
    };
    Ok(Parsed {
        name,
        attrs,
        container,
    })
}

/// `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = match parse_input(input) {
        Ok(p) => p,
        Err(e) => return compile_error(&e),
    };
    let name = &parsed.name;
    let body = match &parsed.container {
        Container::NamedStruct(fields) => {
            if parsed.attrs.transparent && fields.len() == 1 {
                format!("::serde::Serialize::to_value(&self.{})", fields[0].name)
            } else {
                let mut s = String::from("{ let mut __map = ::serde::Map::new();\n");
                for f in fields {
                    s.push_str(&format!(
                        "__map.insert({:?}, ::serde::Serialize::to_value(&self.{}));\n",
                        f.name, f.name
                    ));
                }
                s.push_str("::serde::Value::Object(__map) }");
                s
            }
        }
        Container::TupleStruct(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Container::TupleStruct(n) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Container::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                match &v.shape {
                    VariantShape::Unit => arms.push_str(&format!(
                        "Self::{} => ::serde::Value::String({:?}.to_string()),\n",
                        v.name, v.name
                    )),
                    VariantShape::Newtype => arms.push_str(&format!(
                        "Self::{}(__x) => {{ let mut __map = ::serde::Map::new(); \
                         __map.insert({:?}, ::serde::Serialize::to_value(__x)); \
                         ::serde::Value::Object(__map) }},\n",
                        v.name, v.name
                    )),
                    VariantShape::Struct(fields) => {
                        let pat: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let mut inner = String::from("let mut __inner = ::serde::Map::new();\n");
                        for f in fields {
                            inner.push_str(&format!(
                                "__inner.insert({:?}, ::serde::Serialize::to_value({}));\n",
                                f.name, f.name
                            ));
                        }
                        arms.push_str(&format!(
                            "Self::{} {{ {} }} => {{ {inner} \
                             let mut __map = ::serde::Map::new(); \
                             __map.insert({:?}, ::serde::Value::Object(__inner)); \
                             ::serde::Value::Object(__map) }},\n",
                            v.name,
                            pat.join(", "),
                            v.name
                        ));
                    }
                }
            }
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
    .parse()
    .unwrap()
}

/// `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = match parse_input(input) {
        Ok(p) => p,
        Err(e) => return compile_error(&e),
    };
    let name = &parsed.name;

    if let Some(via) = &parsed.attrs.try_from {
        return format!(
            "#[automatically_derived]\n\
             impl ::serde::Deserialize for {name} {{\n\
                 fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                     let __repr: {via} = ::serde::Deserialize::from_value(__v)?;\n\
                     ::std::convert::TryFrom::try_from(__repr)\n\
                         .map_err(|e| ::serde::DeError::custom(format!(\"{name}: {{e}}\")))\n\
                 }}\n\
             }}"
        )
        .parse()
        .unwrap();
    }

    let body = match &parsed.container {
        Container::NamedStruct(fields) => {
            if parsed.attrs.transparent && fields.len() == 1 {
                format!(
                    "Ok(Self {{ {}: ::serde::Deserialize::from_value(__v)? }})",
                    fields[0].name
                )
            } else {
                let mut s = format!(
                    "let __map = __v.as_object().ok_or_else(|| \
                     ::serde::DeError::custom(format!(\"{name}: expected object, got {{}}\", __v.kind())))?;\n\
                     Ok(Self {{\n"
                );
                for f in fields {
                    if f.default {
                        s.push_str(&format!(
                            "{}: match __map.get({:?}) {{ \
                               Some(__f) => ::serde::Deserialize::from_value(__f)?, \
                               None => ::std::default::Default::default() }},\n",
                            f.name, f.name
                        ));
                    } else {
                        s.push_str(&format!(
                            "{}: match __map.get({:?}) {{ \
                               Some(__f) => ::serde::Deserialize::from_value(__f)?, \
                               None => return Err(::serde::DeError::custom(\
                                   concat!(\"{name}: missing field `\", {:?}, \"`\"))) }},\n",
                            f.name, f.name, f.name
                        ));
                    }
                }
                s.push_str("})");
                s
            }
        }
        Container::TupleStruct(1) => "Ok(Self(::serde::Deserialize::from_value(__v)?))".to_string(),
        Container::TupleStruct(n) => {
            let mut s = format!(
                "let __arr = __v.as_array().ok_or_else(|| \
                 ::serde::DeError::custom(format!(\"{name}: expected array, got {{}}\", __v.kind())))?;\n\
                 if __arr.len() != {n} {{ return Err(::serde::DeError::custom(\
                     format!(\"{name}: expected {n} elements, got {{}}\", __arr.len()))); }}\n\
                 Ok(Self(\n"
            );
            for i in 0..*n {
                s.push_str(&format!(
                    "::serde::Deserialize::from_value(&__arr[{i}])?,\n"
                ));
            }
            s.push_str("))");
            s
        }
        Container::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                match &v.shape {
                    VariantShape::Unit => {
                        unit_arms.push_str(&format!("{:?} => return Ok(Self::{}),\n", v.name, v.name));
                        // Also accept `{"Variant": null}`.
                        tagged_arms.push_str(&format!(
                            "{:?} => return Ok(Self::{}),\n",
                            v.name, v.name
                        ));
                    }
                    VariantShape::Newtype => tagged_arms.push_str(&format!(
                        "{:?} => return Ok(Self::{}(::serde::Deserialize::from_value(__inner)?)),\n",
                        v.name, v.name
                    )),
                    VariantShape::Struct(fields) => {
                        let mut build = format!(
                            "{{ let __fmap = __inner.as_object().ok_or_else(|| \
                             ::serde::DeError::custom(format!(\"{name}::{}: expected object, got {{}}\", __inner.kind())))?;\n\
                             return Ok(Self::{} {{\n",
                            v.name, v.name
                        );
                        for f in fields {
                            if f.default {
                                build.push_str(&format!(
                                    "{}: match __fmap.get({:?}) {{ \
                                       Some(__f) => ::serde::Deserialize::from_value(__f)?, \
                                       None => ::std::default::Default::default() }},\n",
                                    f.name, f.name
                                ));
                            } else {
                                build.push_str(&format!(
                                    "{}: match __fmap.get({:?}) {{ \
                                       Some(__f) => ::serde::Deserialize::from_value(__f)?, \
                                       None => return Err(::serde::DeError::custom(\
                                           concat!(\"{name}: missing field `\", {:?}, \"`\"))) }},\n",
                                    f.name, f.name, f.name
                                ));
                            }
                        }
                        build.push_str("}); }");
                        tagged_arms
                            .push_str(&format!("{:?} => {build},\n", v.name));
                    }
                }
            }
            format!(
                "if let Some(__s) = __v.as_str() {{\n\
                     match __s {{ {unit_arms} _ => {{}} }}\n\
                     return Err(::serde::DeError::custom(format!(\"{name}: unknown variant `{{__s}}`\")));\n\
                 }}\n\
                 if let Some(__map) = __v.as_object() {{\n\
                     if __map.len() == 1 {{\n\
                         let (__tag, __inner) = __map.iter().next().map(|(k, v)| (k.as_str(), v)).unwrap();\n\
                         #[allow(unused_variables)]\n\
                         match __tag {{ {tagged_arms} _ => {{}} }}\n\
                         return Err(::serde::DeError::custom(format!(\"{name}: unknown variant `{{__tag}}`\")));\n\
                     }}\n\
                 }}\n\
                 Err(::serde::DeError::custom(format!(\"{name}: expected variant string or single-key object, got {{}}\", __v.kind())))"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
    .parse()
    .unwrap()
}
