//===- ASTContext.cpp - AST allocation and type uniquing ------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "lang/ASTContext.h"

using namespace tangram;
using namespace tangram::lang;

// Type's constructor is private with ASTContext as friend, so build types
// through a derived helper that inherits constructor access.
static std::unique_ptr<Type> newType(Type::Kind K, const Type *Element,
                                     bool Const) {
  struct TypeMaker : Type {
    TypeMaker(Kind K, const Type *Element, bool Const)
        : Type(K, Element, Const) {}
  };
  return std::make_unique<TypeMaker>(K, Element, Const);
}

ASTContext::ASTContext()
    : VoidTy(newType(Type::Kind::Void, nullptr, false)),
      IntTy(newType(Type::Kind::Int, nullptr, false)),
      UnsignedTy(newType(Type::Kind::Unsigned, nullptr, false)),
      FloatTy(newType(Type::Kind::Float, nullptr, false)),
      LongTy(newType(Type::Kind::Long, nullptr, false)),
      DoubleTy(newType(Type::Kind::Double, nullptr, false)),
      VectorTy(newType(Type::Kind::Vector, nullptr, false)),
      SequenceTy(newType(Type::Kind::Sequence, nullptr, false)),
      MapTy(newType(Type::Kind::Map, nullptr, false)) {}

const Type *ASTContext::getArrayType(const Type *Element, bool Const) {
  for (const auto &T : ArrayTypes)
    if (T->getElementType() == Element && T->isConstQualified() == Const)
      return T.get();
  ArrayTypes.push_back(newType(Type::Kind::Array, Element, Const));
  return ArrayTypes.back().get();
}
